// Package bgp implements the BGP-4 wire protocol (RFC 4271) with 4-octet
// AS number support (RFC 6793): message framing, the four message types,
// and the standard path attributes.
//
// The codec is used by every data path in the reproduction: the MRT
// archive (internal/bgp/mrt) and BMP (internal/bgp/bmp) embed these
// messages, and the simulated feeds decode them back. Unknown path
// attributes are preserved as raw bytes so that a speaker can forward
// what it does not understand, as the RFC requires for optional
// transitive attributes.
package bgp

import (
	"encoding/binary"
	"fmt"
	"io"

	"artemis/internal/prefix"
)

// ASN is an autonomous system number. The reproduction is 4-octet native
// (every modern speaker negotiates RFC 6793), but the codec can also emit
// the 2-octet legacy encoding with AS_TRANS substitution.
type ASN uint32

// ASTrans is the reserved 2-octet ASN substituted for 4-octet ASNs when
// speaking to a legacy peer (RFC 6793 §4.2.2).
const ASTrans ASN = 23456

func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Message sizes (RFC 4271 §4.1).
const (
	HeaderLen     = 19
	MaxMessageLen = 4096
)

// MessageType identifies one of the four BGP message types.
type MessageType uint8

const (
	MsgOpen         MessageType = 1
	MsgUpdate       MessageType = 2
	MsgNotification MessageType = 3
	MsgKeepalive    MessageType = 4
)

func (t MessageType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	}
	return fmt.Sprintf("BGP(%d)", uint8(t))
}

// Message is one of *Open, *Update, *Notification, *Keepalive.
type Message interface {
	Type() MessageType
	// marshalBody appends the message body (everything after the common
	// header) to dst.
	marshalBody(dst []byte, opt Options) ([]byte, error)
}

// Options controls encoding variants.
type Options struct {
	// AS4 selects 4-octet AS_PATH encoding (RFC 6793). It is the default
	// for every session in the reproduction; disabling it exercises the
	// legacy 2-octet path with AS_TRANS substitution.
	AS4 bool
}

// DefaultOptions is the modern, 4-octet-AS encoding.
var DefaultOptions = Options{AS4: true}

// Marshal encodes a full BGP message including the 19-byte header.
func Marshal(m Message, opt Options) ([]byte, error) {
	buf := make([]byte, HeaderLen, 64)
	for i := 0; i < 16; i++ {
		buf[i] = 0xff
	}
	buf[18] = byte(m.Type())
	buf, err := m.marshalBody(buf, opt)
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxMessageLen {
		return nil, fmt.Errorf("bgp: %s message length %d exceeds %d", m.Type(), len(buf), MaxMessageLen)
	}
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(buf)))
	return buf, nil
}

// ParseMessage decodes a full BGP message (header included) from wire bytes.
func ParseMessage(b []byte, opt Options) (Message, error) {
	typ, body, err := splitHeader(b)
	if err != nil {
		return nil, err
	}
	return parseBody(typ, body, opt)
}

// ReadMessage reads exactly one framed BGP message from r.
func ReadMessage(r io.Reader, opt Options) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < HeaderLen || length > MaxMessageLen {
		return nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageLength, hdr[16:18], fmt.Sprintf("bgp: bad message length %d", length))
	}
	full := make([]byte, length)
	copy(full, hdr[:])
	if _, err := io.ReadFull(r, full[HeaderLen:]); err != nil {
		return nil, err
	}
	return ParseMessage(full, opt)
}

// WriteMessage marshals m and writes it to w.
func WriteMessage(w io.Writer, m Message, opt Options) error {
	b, err := Marshal(m, opt)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func splitHeader(b []byte) (MessageType, []byte, error) {
	if len(b) < HeaderLen {
		return 0, nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageLength, nil, "bgp: short header")
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xff {
			return 0, nil, NewMessageError(ErrMessageHeader, ErrSubConnectionNotSynchronized, nil, "bgp: bad marker")
		}
	}
	length := int(binary.BigEndian.Uint16(b[16:18]))
	typ := MessageType(b[18])
	if length < HeaderLen || length > MaxMessageLen || length != len(b) {
		return 0, nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageLength, b[16:18], fmt.Sprintf("bgp: bad message length %d (have %d bytes)", length, len(b)))
	}
	return typ, b[HeaderLen:], nil
}

func parseBody(typ MessageType, body []byte, opt Options) (Message, error) {
	switch typ {
	case MsgOpen:
		return parseOpen(body)
	case MsgUpdate:
		return parseUpdate(body, opt)
	case MsgNotification:
		return parseNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageLength, nil, "bgp: KEEPALIVE with body")
		}
		return &Keepalive{}, nil
	}
	return nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageType, []byte{byte(typ)}, fmt.Sprintf("bgp: unknown message type %d", typ))
}

// --- NLRI encoding (RFC 4271 §4.3, RFC 4760 §5) ---

// appendNLRI encodes prefixes in the shared length-plus-truncated-bytes
// form. The caller is responsible for family discipline: classic UPDATE
// fields carry v4 only, MP attributes v6 only.
func appendNLRI(dst []byte, prefixes []prefix.Prefix) []byte {
	for _, p := range prefixes {
		dst = append(dst, byte(p.Bits()))
		dst = p.AppendBytes(dst)
	}
	return dst
}

func parseNLRI(b []byte, is6 bool) ([]prefix.Prefix, error) {
	max := 32
	if is6 {
		max = 128
	}
	var out []prefix.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > max {
			return nil, NewMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, fmt.Sprintf("bgp: NLRI length %d", bits))
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, NewMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, "bgp: truncated NLRI")
		}
		p, err := prefix.FromBytes(b[1:1+n], bits, is6)
		if err != nil {
			return nil, NewMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, "bgp: NLRI trailing bits set")
		}
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}

// splitFamily partitions prefixes into v4 and v6, preserving order. The
// common all-v4 case returns the input slice unchanged.
func splitFamily(prefixes []prefix.Prefix) (v4, v6 []prefix.Prefix) {
	allV4 := true
	for _, p := range prefixes {
		if p.Is6() {
			allV4 = false
			break
		}
	}
	if allV4 {
		return prefixes, nil
	}
	for _, p := range prefixes {
		if p.Is6() {
			v6 = append(v6, p)
		} else {
			v4 = append(v4, p)
		}
	}
	return v4, v6
}
