package ingest_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/wsock"
)

// risEvents returns n distinct announcements with paths of varying length.
func risEvents(n int) []feedtypes.Event {
	evs := make([]feedtypes.Event, n)
	for i := range evs {
		path := []bgp.ASN{100, 2000, 3000, 4000, 5000}[:1+i%5]
		evs[i] = feedtypes.Event{
			Source:       ris.SourceName,
			Collector:    "rrc00",
			VantagePoint: 100,
			Kind:         feedtypes.Announce,
			Prefix:       prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", i/256%256, i%256)),
			Path:         append(path, bgp.ASN(60000+i)),
			// Whole seconds: the wire carries float seconds, exact for these.
			SeenAt:    time.Duration(i+1) * time.Second,
			EmittedAt: time.Duration(i+2) * time.Second,
		}
	}
	return evs
}

// risFrames encodes evs as the unmasked websocket text frames a RIS
// server sends.
func risFrames(evs []feedtypes.Event) []byte {
	var out, msg []byte
	for _, ev := range evs {
		msg = ris.AppendMessage(msg[:0], ev)
		out = append(out, 0x81)
		if len(msg) < 126 {
			out = append(out, byte(len(msg)))
		} else {
			out = binary.BigEndian.AppendUint16(append(out, 126), uint16(len(msg)))
		}
		out = append(out, msg...)
	}
	return out
}

// risLoopback serves one websocket client on loopback: it completes the
// handshake, writes frames in one go and then reads (and drops) whatever
// the client sends until it hangs up. The frames are therefore queued on
// the socket before the client reads any, and writing them allocates
// nothing while a test measures the client.
func risLoopback(t *testing.T, frames []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		resp := "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
			"Sec-WebSocket-Accept: " + wsock.AcceptKey(req.Header.Get("Sec-WebSocket-Key")) + "\r\n\r\n"
		if _, err := c.Write(append([]byte(resp), frames...)); err != nil {
			return
		}
		io.Copy(io.Discard, br)
	}()
	return "ws://" + ln.Addr().String() + "/v1/ws"
}

// TestRISDialerDecodesBufferedBurst: a burst already on the socket comes
// back in wide batches, in order, decoded to the events that were sent.
func TestRISDialerDecodesBufferedBurst(t *testing.T) {
	evs := risEvents(2000)
	conn, err := ingest.RISDialer(risLoopback(t, risFrames(evs)), feedtypes.Filter{}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, recvs := 0, 0
	for got < len(evs) {
		batch, err := conn.Recv()
		if err != nil {
			t.Fatalf("Recv after %d events: %v", got, err)
		}
		recvs++
		for i := range batch {
			want := evs[got+i]
			if batch[i].Prefix != want.Prefix || fmt.Sprint(batch[i].Path) != fmt.Sprint(want.Path) ||
				batch[i].SeenAt != want.SeenAt || batch[i].Collector != want.Collector {
				t.Fatalf("event %d = %+v, want %+v", got+i, batch[i], want)
			}
		}
		got += len(batch)
	}
	if perRecv := got / recvs; perRecv < 16 {
		t.Fatalf("%d events in %d Recvs: a pre-filled socket should coalesce", got, recvs)
	}
}

// TestRISDialerBadMessageEndsStream: the events before an undecodable
// message are delivered, then the error.
func TestRISDialerBadMessageEndsStream(t *testing.T) {
	frames := risFrames(risEvents(3))
	frames = append(frames, 0x81, 8)
	frames = append(frames, `{"type"}`...)
	conn, err := ingest.RISDialer(risLoopback(t, frames), feedtypes.Filter{}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := 0
	for {
		batch, err := conn.Recv()
		got += len(batch)
		if err != nil {
			break
		}
	}
	if got != 3 {
		t.Fatalf("delivered %d events before the bad message, want 3", got)
	}
}
