// Package wsfeed is the server side of a RIS-Live websocket feed reduced
// to what a load generator needs: finish the opening handshake, swallow
// the client's subscription, and hand back the raw connection, on which
// the caller writes frames it encoded beforehand (gen.AppendRISFrames).
// The repo's wsock.Conn writes one frame per call with two system calls;
// a generator that must not become the bottleneck writes a whole tick's
// frames at once.
package wsfeed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"artemis/internal/wsock"
)

// Accept upgrades the request to a websocket, reads the ris_subscribe
// message the client sends first, and returns the hijacked connection
// with the reader that may hold bytes already buffered from it. The
// subscription's filter is not applied: filtering a RIS feed is the
// server's work, and costs the subscriber nothing.
func Accept(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, error) {
	key := r.Header.Get("Sec-WebSocket-Key")
	hj, ok := w.(http.Hijacker)
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") || key == "" || !ok {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, nil, fmt.Errorf("wsfeed: not a websocket handshake")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	_, err = rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsock.AcceptKey(key) + "\r\n\r\n")
	if err == nil {
		err = rw.Flush()
	}
	if err == nil {
		err = SkipFrame(rw.Reader)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, rw.Reader, nil
}

// SkipFrame consumes one websocket frame sent by a client (masked or
// not), discarding its payload. A close frame reads as io.EOF.
func SkipFrame(br *bufio.Reader) error {
	var h [2]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return err
	}
	n := uint64(h[1] & 0x7f)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return err
		}
		n = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return err
		}
		n = binary.BigEndian.Uint64(ext[:])
	}
	if h[1]&0x80 != 0 {
		n += 4 // masking key
	}
	if h[0]&0x0f == 0x8 {
		return io.EOF
	}
	_, err := io.CopyN(io.Discard, br, int64(n))
	return err
}
