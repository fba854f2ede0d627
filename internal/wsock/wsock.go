// Package wsock is a minimal WebSocket (RFC 6455) implementation covering
// what a BGP streaming feed needs: the HTTP/1.1 upgrade handshake (server
// and client side), text and binary data frames, fragmentation, ping/pong,
// and close. It exists because the reproduced RIS Live feed
// (internal/feeds/ris) streams JSON over WebSocket, and the module is
// stdlib-only.
//
// Frames from the client are masked as the RFC requires; server frames are
// not. Control frames interleaved with fragmented messages are handled.
//
// A Conn reads each frame into a buffer it reuses, so a message returned
// by ReadMessage is valid only until the next read on that Conn.
package wsock

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
)

// magicGUID is the fixed GUID from RFC 6455 §1.3 used in the accept hash.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// maxMessageLen bounds a reassembled message; feed events are tiny, so a
// generous 4 MiB cap protects against a corrupt or hostile length field.
const maxMessageLen = 4 << 20

// maxControlLen bounds a control frame's payload (RFC 6455 §5.5).
const maxControlLen = 125

// clientReadBuffer sizes a client's read buffer. A feed's messages are a
// few hundred bytes, so one read syscall takes in a whole burst of them,
// and MessageBuffered can then report each as already there.
const clientReadBuffer = 64 << 10

// ErrClosed is returned by Read/Write after the connection is closed,
// locally or by the peer.
var ErrClosed = errors.New("wsock: connection closed")

// Conn is an established WebSocket connection. It is safe for one
// concurrent reader plus one concurrent writer.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // true when we are the client (must mask writes)

	// hdr receives frame headers; frame holds the last frame read and
	// msg the last reassembled fragmented message. All are reused by the
	// next read.
	hdr        [8]byte
	frame, msg []byte

	wmu    sync.Mutex
	closed bool
}

// AcceptKey computes the Sec-WebSocket-Accept value for a handshake key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Upgrade performs the server side of the WebSocket handshake on an HTTP
// request, hijacking the underlying TCP connection.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), "websocket") ||
		!headerContainsToken(r.Header.Get("Connection"), "upgrade") {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, fmt.Errorf("wsock: not a websocket handshake")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, fmt.Errorf("wsock: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "hijacking unsupported", http.StatusInternalServerError)
		return nil, fmt.Errorf("wsock: response writer does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsock: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return &Conn{conn: conn, br: rw.Reader, client: false}, nil
}

func headerContainsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// Dial connects to a ws:// URL (host:port with path) and performs the
// client handshake.
func Dial(url string) (*Conn, error) {
	rest, ok := strings.CutPrefix(url, "ws://")
	if !ok {
		return nil, fmt.Errorf("wsock: only ws:// URLs supported, got %q", url)
	}
	host, path := rest, "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		host, path = rest[:i], rest[i:]
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return ClientHandshake(conn, host, path)
}

// ClientHandshake performs the client side of the handshake over an
// existing connection.
func ClientHandshake(conn net.Conn, host, path string) (*Conn, error) {
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", path, host, key)
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, clientReadBuffer)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("wsock: handshake rejected: %s", strings.TrimSpace(status))
	}
	var accept string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if accept != AcceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("wsock: bad Sec-WebSocket-Accept")
	}
	return &Conn{conn: conn, br: br, client: true}, nil
}

// WriteMessage sends one complete message with the given opcode (OpText or
// OpBinary).
func (c *Conn) WriteMessage(opcode byte, payload []byte) error {
	return c.writeFrame(opcode, payload, true)
}

func (c *Conn) writeFrame(opcode byte, payload []byte, fin bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrClosed
	}
	var hdr [14]byte
	b0 := opcode
	if fin {
		b0 |= 0x80
	}
	hdr[0] = b0
	n := 2
	switch {
	case len(payload) < 126:
		hdr[1] = byte(len(payload))
	case len(payload) <= 0xffff:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(len(payload)))
		n = 10
	}
	if c.client {
		hdr[1] |= 0x80
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return err
		}
		copy(hdr[n:], mask[:])
		n += 4
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ mask[i%4]
		}
		payload = masked
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := c.conn.Write(payload)
	return err
}

// ReadMessage reads the next complete data message, transparently handling
// fragmentation and responding to pings. It returns the opcode (OpText or
// OpBinary) and the reassembled payload, which is valid until the next
// read on c. When the peer sends a close frame the method echoes it and
// returns ErrClosed.
func (c *Conn) ReadMessage() (byte, []byte, error) {
	var (
		msgOp  byte
		inFrag bool
	)
	for {
		fin, op, payload, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case opPing:
			if err := c.writeFrame(opPong, payload, true); err != nil {
				return 0, nil, err
			}
		case opPong:
			// unsolicited pong: ignore
		case opClose:
			c.writeFrame(opClose, payload, true)
			c.Close()
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if inFrag {
				return 0, nil, fmt.Errorf("wsock: new data frame inside fragmented message")
			}
			if fin {
				return op, payload, nil
			}
			// The frame buffer is reused by the next read, so fragments are
			// copied out of it as they arrive.
			msgOp, c.msg, inFrag = op, append(c.msg[:0], payload...), true
		case opContinuation:
			if !inFrag {
				return 0, nil, fmt.Errorf("wsock: continuation without start frame")
			}
			if len(c.msg)+len(payload) > maxMessageLen {
				return 0, nil, fmt.Errorf("wsock: message exceeds %d bytes", maxMessageLen)
			}
			c.msg = append(c.msg, payload...)
			if fin {
				return msgOp, c.msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("wsock: unknown opcode %#x", op)
		}
	}
}

// MessageBuffered reports whether a whole unfragmented data message is
// already buffered, so that the next ReadMessage returns it without
// waiting on the network.
func (c *Conn) MessageBuffered() bool {
	n := c.br.Buffered()
	if n < 2 {
		return false
	}
	h, _ := c.br.Peek(min(n, 14)) // cannot block: n bytes are buffered
	if h[0] != 0x80|OpText && h[0] != 0x80|OpBinary {
		return false
	}
	head, length := 2, uint64(h[1]&0x7f)
	switch length {
	case 126:
		if head = 4; len(h) < head {
			return false
		}
		length = uint64(binary.BigEndian.Uint16(h[2:4]))
	case 127:
		if head = 10; len(h) < head {
			return false
		}
		length = binary.BigEndian.Uint64(h[2:10])
	}
	if h[1]&0x80 != 0 {
		head += 4 // masking key
	}
	return uint64(n-head) >= length
}

// readFrame reads the next frame. The payload is c.frame, valid until the
// next readFrame.
func (c *Conn) readFrame() (fin bool, op byte, payload []byte, err error) {
	h := c.hdr[:2]
	if _, err = io.ReadFull(c.br, h); err != nil {
		return false, 0, nil, err
	}
	fin = h[0]&0x80 != 0
	if h[0]&0x70 != 0 {
		return false, 0, nil, fmt.Errorf("wsock: nonzero reserved bits")
	}
	op = h[0] & 0x0f
	masked := h[1]&0x80 != 0
	length := uint64(h[1] & 0x7f)
	switch length {
	case 126:
		if _, err = io.ReadFull(c.br, c.hdr[:2]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(c.hdr[:2]))
	case 127:
		if _, err = io.ReadFull(c.br, c.hdr[:8]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(c.hdr[:8])
	}
	if length > maxMessageLen {
		return false, 0, nil, fmt.Errorf("wsock: frame length %d exceeds cap", length)
	}
	// Control frames may not be fragmented and carry at most 125 bytes
	// (RFC 6455 §5.5); a peer's oversized ping is not echoed back.
	if op&0x8 != 0 && (!fin || length > maxControlLen) {
		return false, 0, nil, fmt.Errorf("wsock: invalid control frame (opcode %#x, fin %v, %d bytes)", op, fin, length)
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, c.hdr[:4]); err != nil {
			return false, 0, nil, err
		}
		copy(mask[:], c.hdr[:4])
	}
	if uint64(cap(c.frame)) < length {
		c.frame = make([]byte, max(length, min(2*uint64(cap(c.frame)), maxMessageLen), 512))
	}
	payload = c.frame[:length]
	if _, err = io.ReadFull(c.br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return fin, op, payload, nil
}

// Ping sends a ping frame with the given payload (max 125 bytes).
func (c *Conn) Ping(payload []byte) error {
	if len(payload) > maxControlLen {
		return fmt.Errorf("wsock: control payload too long")
	}
	return c.writeFrame(opPing, payload, true)
}

// Close sends a close frame (best effort) and closes the connection.
// It is idempotent.
func (c *Conn) Close() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		return nil
	}
	c.closed = true
	c.wmu.Unlock()
	// Best-effort close frame; ignore errors, the TCP close is what counts.
	hdr := []byte{0x80 | opClose, 0}
	if c.client {
		hdr[1] = 0x80
		hdr = append(hdr, 0, 0, 0, 0)
	}
	c.conn.Write(hdr)
	return c.conn.Close()
}
