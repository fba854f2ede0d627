package wsock

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeConns builds a connected client/server Conn pair over a real TCP
// loopback with a full HTTP upgrade handshake.
func pipeConns(t *testing.T) (client, server *Conn) {
	t.Helper()
	var (
		mu  sync.Mutex
		srv *Conn
	)
	ready := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			t.Errorf("Upgrade: %v", err)
			return
		}
		mu.Lock()
		srv = c
		mu.Unlock()
		close(ready)
	}))
	t.Cleanup(hs.Close)
	addr := strings.TrimPrefix(hs.URL, "http://")
	cli, err := Dial("ws://" + addr + "/stream")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	select {
	case <-ready:
	case <-time.After(2 * time.Second):
		t.Fatal("server upgrade timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	t.Cleanup(func() { srv.Close() })
	return cli, srv
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestEchoBothDirections(t *testing.T) {
	cli, srv := pipeConns(t)
	// client -> server
	msg := []byte(`{"type":"ris_message","data":{"prefix":"10.0.0.0/23"}}`)
	if err := cli.WriteMessage(OpText, msg); err != nil {
		t.Fatal(err)
	}
	op, got, err := srv.ReadMessage()
	if err != nil || op != OpText || !bytes.Equal(got, msg) {
		t.Fatalf("server got op=%d %q err=%v", op, got, err)
	}
	// server -> client
	if err := srv.WriteMessage(OpBinary, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	op, got, err = cli.ReadMessage()
	if err != nil || op != OpBinary || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("client got op=%d %v err=%v", op, got, err)
	}
}

func TestLargeMessages(t *testing.T) {
	cli, srv := pipeConns(t)
	for _, size := range []int{0, 125, 126, 127, 65535, 65536, 200000} {
		payload := bytes.Repeat([]byte{0xab}, size)
		done := make(chan error, 1)
		go func() { done <- cli.WriteMessage(OpBinary, payload) }()
		_, got, err := srv.ReadMessage()
		if err != nil {
			t.Fatalf("size %d: read: %v", size, err)
		}
		if len(got) != size {
			t.Fatalf("size %d: got %d bytes", size, len(got))
		}
		if err := <-done; err != nil {
			t.Fatalf("size %d: write: %v", size, err)
		}
	}
}

func TestManySmallMessagesInOrder(t *testing.T) {
	cli, srv := pipeConns(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			srv.WriteMessage(OpText, []byte{byte(i), byte(i >> 8)})
		}
	}()
	for i := 0; i < n; i++ {
		_, got, err := cli.ReadMessage()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if int(got[0])|int(got[1])<<8 != i {
			t.Fatalf("out of order at %d: % x", i, got)
		}
	}
}

func TestPingTransparent(t *testing.T) {
	cli, srv := pipeConns(t)
	if err := cli.Ping([]byte("hb")); err != nil {
		t.Fatal(err)
	}
	// Server's next read answers the ping internally and then delivers the
	// following data message.
	go func() {
		time.Sleep(10 * time.Millisecond)
		cli.WriteMessage(OpText, []byte("after-ping"))
	}()
	_, got, err := srv.ReadMessage()
	if err != nil || string(got) != "after-ping" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestPingTooLong(t *testing.T) {
	cli, _ := pipeConns(t)
	if err := cli.Ping(bytes.Repeat([]byte{0}, 126)); err == nil {
		t.Fatal("oversize ping accepted")
	}
}

func TestCloseHandshake(t *testing.T) {
	cli, srv := pipeConns(t)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.ReadMessage(); err == nil {
		t.Fatal("server read succeeded after client close")
	}
	// Double close is a no-op.
	if err := cli.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := cli.WriteMessage(OpText, []byte("x")); err != ErrClosed {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

func TestServerInitiatedClose(t *testing.T) {
	cli, srv := pipeConns(t)
	srv.Close()
	if _, _, err := cli.ReadMessage(); err == nil {
		t.Fatal("client read succeeded after server close")
	}
}

func TestDialRejectsNonWS(t *testing.T) {
	if _, err := Dial("http://example.com/"); err == nil {
		t.Fatal("http URL accepted")
	}
}

func TestDialUnreachable(t *testing.T) {
	// Port 1 on localhost is almost certainly closed.
	if _, err := Dial("ws://127.0.0.1:1/x"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestUpgradeRejectsPlainRequest(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); err == nil {
			t.Error("plain GET upgraded")
		}
	}))
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHandshakeRejectsBadAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		c.Read(buf)
		c.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: bogus\r\n\r\n"))
	}()
	if _, err := Dial("ws://" + ln.Addr().String() + "/"); err == nil {
		t.Fatal("bogus accept key passed validation")
	}
}

func TestFragmentedMessageReassembly(t *testing.T) {
	cli, srv := pipeConns(t)
	// Hand-roll a fragmented text message from the server side (unmasked).
	if err := srv.writeFrame(OpText, []byte("hel"), false); err != nil {
		t.Fatal(err)
	}
	if err := srv.writeFrame(opContinuation, []byte("lo "), false); err != nil {
		t.Fatal(err)
	}
	if err := srv.writeFrame(opContinuation, []byte("world"), true); err != nil {
		t.Fatal(err)
	}
	op, got, err := cli.ReadMessage()
	if err != nil || op != OpText || string(got) != "hello world" {
		t.Fatalf("reassembly got %q (op %d, err %v)", got, op, err)
	}
}

func TestInterleavedControlDuringFragments(t *testing.T) {
	cli, srv := pipeConns(t)
	srv.writeFrame(OpText, []byte("a"), false)
	srv.writeFrame(opPing, []byte("p"), true) // control frame mid-message
	srv.writeFrame(opContinuation, []byte("b"), true)
	_, got, err := cli.ReadMessage()
	if err != nil || string(got) != "ab" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

// TestFragmentsSurvivePingInFrameBuffer: the frame buffer is reused by
// every read, so a ping arriving between fragments overwrites the bytes
// of the fragment before it. Reassembly must already have copied them
// out, and the pong must echo the ping, not the fragment.
func TestFragmentsSurvivePingInFrameBuffer(t *testing.T) {
	cli, srv := pipeConns(t)
	first := bytes.Repeat([]byte("x"), 200)
	srv.writeFrame(OpBinary, first, false)
	srv.writeFrame(opPing, []byte("ping!"), true)
	srv.writeFrame(opContinuation, []byte("tail"), true)
	srv.writeFrame(OpText, []byte("next"), true)
	op, got, err := cli.ReadMessage()
	if err != nil || op != OpBinary || string(got) != string(first)+"tail" {
		t.Fatalf("reassembled op=%d %q err=%v", op, got, err)
	}
	// The client answered the ping while reading; the server sees the pong.
	fin, op, payload, err := srv.readFrame()
	if err != nil || !fin || op != opPong || string(payload) != "ping!" {
		t.Fatalf("pong = fin %v op %#x %q err %v", fin, op, payload, err)
	}
	if _, got, err := cli.ReadMessage(); err != nil || string(got) != "next" {
		t.Fatalf("message after the fragmented one = %q err=%v", got, err)
	}
}

// TestMessageBuffered: a whole data frame already read off the socket is
// reported as buffered; a partial one, a control frame, or the first
// fragment of a message is not, since reading it could wait on the peer.
func TestMessageBuffered(t *testing.T) {
	cli, srv := pipeConns(t)
	for _, size := range []int{3, 200, 70000} {
		srv.WriteMessage(OpText, bytes.Repeat([]byte{'m'}, size))
	}
	srv.writeFrame(opPing, []byte("p"), true)
	srv.WriteMessage(OpText, []byte("after ping"))
	srv.writeFrame(OpText, []byte("frag"), false)
	if cli.MessageBuffered() {
		t.Fatal("buffered before any read")
	}
	read := func(want int) {
		t.Helper()
		if _, got, err := cli.ReadMessage(); err != nil || len(got) != want {
			t.Fatalf("read %d bytes err=%v, want %d", len(got), err, want)
		}
	}
	// Peek(n) waits until the read buffer holds n bytes.
	read(3)
	cli.br.Peek(4 + 200) // extended header + payload
	if !cli.MessageBuffered() {
		t.Fatal("whole 200-byte message not reported buffered")
	}
	read(200)
	read(70000) // larger than the read buffer: never buffered whole
	cli.br.Peek(2 + 1)
	if cli.MessageBuffered() {
		t.Fatal("ping reported as a buffered data message")
	}
	read(len("after ping"))
	cli.br.Peek(2 + 4)
	if cli.MessageBuffered() {
		t.Fatal("first fragment reported as a whole message")
	}
}

func TestProtocolViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames func(srv *Conn)
	}{
		{"continuation without start", func(srv *Conn) {
			srv.writeFrame(opContinuation, []byte("x"), true)
		}},
		{"new data frame inside fragmented message", func(srv *Conn) {
			srv.writeFrame(OpText, []byte("x"), false)
			srv.writeFrame(OpText, []byte("y"), true)
		}},
		{"fragmented ping", func(srv *Conn) {
			srv.writeFrame(opPing, []byte("p"), false)
		}},
		{"fragmented close", func(srv *Conn) {
			srv.writeFrame(opClose, nil, false)
		}},
		{"oversized ping", func(srv *Conn) {
			srv.writeFrame(opPing, bytes.Repeat([]byte{0}, 126), true)
		}},
		{"4 MiB ping", func(srv *Conn) {
			srv.writeFrame(opPing, bytes.Repeat([]byte{0}, maxMessageLen), true)
		}},
		{"oversized pong", func(srv *Conn) {
			srv.writeFrame(opPong, bytes.Repeat([]byte{0}, 200), true)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := pipeConns(t)
			wrote := make(chan struct{})
			go func() { defer close(wrote); tc.frames(srv) }()
			_, _, err := cli.ReadMessage()
			// Closing the reader fails a write still blocked on the payload
			// it refused to read.
			cli.Close()
			<-wrote
			if err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
