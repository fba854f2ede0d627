// Package mrt implements the MRT export format (RFC 6396) that RouteViews
// and RIPE RIS use for their archived BGP data: BGP4MP update records and
// TABLE_DUMP_V2 RIB snapshots.
//
// In the paper's framing, these archives are the *slow* path — full RIBs
// every 2 hours, update files every 15 minutes — that make third-party
// hijack detection too late for short-lived events. The reproduction's
// baseline detector (internal/feeds/dumps) consumes exactly this format so
// the ARTEMIS-vs-archive comparison (experiment E5) exercises a faithful
// pipeline, not a toy stand-in.
package mrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Record types and subtypes used by the reproduction (RFC 6396 §4).
const (
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16

	SubtypePeerIndexTable   uint16 = 1
	SubtypeRIBIPv4Unicast   uint16 = 2
	SubtypeRIBIPv6Unicast   uint16 = 4
	SubtypeBGP4MPMessageAS4 uint16 = 4
)

// Record is a decoded MRT record: one of *BGP4MPMessage, *PeerIndexTable,
// or *RIBEntry.
type Record interface {
	// Timestamp is the capture time carried in the MRT common header.
	Time() time.Time
	appendBody(dst []byte) ([]byte, error)
	typeSubtype() (uint16, uint16)
}

// BGP4MPMessage is a BGP4MP_MESSAGE_AS4 record: one BGP message as seen on
// a collector's peering session.
type BGP4MPMessage struct {
	Timestamp time.Time
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	Interface uint16
	PeerIP    prefix.Addr
	LocalIP   prefix.Addr
	Message   bgp.Message
}

func (m *BGP4MPMessage) Time() time.Time               { return m.Timestamp }
func (m *BGP4MPMessage) typeSubtype() (uint16, uint16) { return TypeBGP4MP, SubtypeBGP4MPMessageAS4 }

// appendAddr writes an address in the width its family dictates (4 or 16
// bytes); parseAddrAt reads one back.
func appendAddr(dst []byte, a prefix.Addr) []byte {
	if a.Is6() {
		b := a.As16()
		return append(dst, b[:]...)
	}
	return binary.BigEndian.AppendUint32(dst, a.V4())
}

func parseAddrAt(b []byte, is6 bool) (prefix.Addr, int, error) {
	if !is6 {
		if len(b) < 4 {
			return prefix.Addr{}, 0, fmt.Errorf("mrt: truncated v4 address")
		}
		return prefix.AddrFrom4(binary.BigEndian.Uint32(b[:4])), 4, nil
	}
	if len(b) < 16 {
		return prefix.Addr{}, 0, fmt.Errorf("mrt: truncated v6 address")
	}
	return prefix.AddrFrom16Bytes(b), 16, nil
}

func (m *BGP4MPMessage) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.PeerAS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.LocalAS))
	dst = binary.BigEndian.AppendUint16(dst, m.Interface)
	// The AFI describes the peering session's transport addresses; the BGP
	// message inside may still carry either family's NLRI (v6 via MP
	// attributes), exactly as real collectors emit.
	afi := bgp.AFIIPv4
	if m.PeerIP.Is6() {
		afi = bgp.AFIIPv6
	}
	if m.LocalIP.Is6() != m.PeerIP.Is6() && m.LocalIP != (prefix.Addr{}) {
		return nil, fmt.Errorf("mrt: BGP4MP peer/local address families differ")
	}
	dst = binary.BigEndian.AppendUint16(dst, afi)
	dst = appendAddr(dst, m.PeerIP)
	if afi == bgp.AFIIPv6 && !m.LocalIP.Is6() {
		dst = appendAddr(dst, prefix.AddrFrom16(0, 0)) // unset local on a v6 session
	} else {
		dst = appendAddr(dst, m.LocalIP)
	}
	msg, err := bgp.Marshal(m.Message, bgp.DefaultOptions)
	if err != nil {
		return nil, err
	}
	return append(dst, msg...), nil
}

func parseBGP4MP(ts time.Time, b []byte) (*BGP4MPMessage, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("mrt: short BGP4MP body (%d bytes)", len(b))
	}
	afi := binary.BigEndian.Uint16(b[10:12])
	if afi != bgp.AFIIPv4 && afi != bgp.AFIIPv6 {
		return nil, fmt.Errorf("mrt: unsupported AFI %d", afi)
	}
	is6 := afi == bgp.AFIIPv6
	rec := &BGP4MPMessage{
		Timestamp: ts,
		PeerAS:    bgp.ASN(binary.BigEndian.Uint32(b[0:4])),
		LocalAS:   bgp.ASN(binary.BigEndian.Uint32(b[4:8])),
		Interface: binary.BigEndian.Uint16(b[8:10]),
	}
	rest := b[12:]
	peer, n, err := parseAddrAt(rest, is6)
	if err != nil {
		return nil, err
	}
	rec.PeerIP = peer
	rest = rest[n:]
	local, n, err := parseAddrAt(rest, is6)
	if err != nil {
		return nil, err
	}
	rec.LocalIP = local
	rest = rest[n:]
	msg, err := bgp.ParseMessage(rest, bgp.DefaultOptions)
	if err != nil {
		return nil, fmt.Errorf("mrt: embedded BGP message: %w", err)
	}
	rec.Message = msg
	return rec, nil
}

// Peer describes one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID prefix.Addr
	IP    prefix.Addr
	AS    bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 peer index that RIB entries refer
// into by position.
type PeerIndexTable struct {
	Timestamp   time.Time
	CollectorID prefix.Addr
	ViewName    string
	Peers       []Peer
}

func (p *PeerIndexTable) Time() time.Time { return p.Timestamp }
func (p *PeerIndexTable) typeSubtype() (uint16, uint16) {
	return TypeTableDumpV2, SubtypePeerIndexTable
}

func (p *PeerIndexTable) appendBody(dst []byte) ([]byte, error) {
	// A collector ID is a BGP identifier: 32-bit even on v6 collectors.
	if p.CollectorID.Is6() {
		return nil, fmt.Errorf("mrt: collector ID must be a 32-bit (v4-form) identifier")
	}
	dst = binary.BigEndian.AppendUint32(dst, p.CollectorID.V4())
	if len(p.ViewName) > 0xffff {
		return nil, fmt.Errorf("mrt: view name too long")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.ViewName)))
	dst = append(dst, p.ViewName...)
	if len(p.Peers) > 0xffff {
		return nil, fmt.Errorf("mrt: too many peers")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Peers)))
	for _, pe := range p.Peers {
		typ := byte(0x02) // 4-octet AS
		if pe.IP.Is6() {
			typ |= 0x01 // 16-byte peer address
		}
		dst = append(dst, typ)
		if pe.BGPID.Is6() {
			return nil, fmt.Errorf("mrt: peer BGP ID must be a 32-bit (v4-form) identifier")
		}
		dst = binary.BigEndian.AppendUint32(dst, pe.BGPID.V4())
		dst = appendAddr(dst, pe.IP)
		dst = binary.BigEndian.AppendUint32(dst, uint32(pe.AS))
	}
	return dst, nil
}

func parsePeerIndexTable(ts time.Time, b []byte) (*PeerIndexTable, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("mrt: short PEER_INDEX_TABLE")
	}
	p := &PeerIndexTable{Timestamp: ts, CollectorID: prefix.AddrFrom4(binary.BigEndian.Uint32(b[:4]))}
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	if len(b) < 6+nameLen+2 {
		return nil, fmt.Errorf("mrt: truncated view name")
	}
	p.ViewName = string(b[6 : 6+nameLen])
	b = b[6+nameLen:]
	count := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("mrt: truncated peer entry")
		}
		typ := b[0]
		is6 := typ&0x01 != 0
		asLen := 2
		if typ&0x02 != 0 {
			asLen = 4
		}
		pe := Peer{BGPID: prefix.AddrFrom4(binary.BigEndian.Uint32(b[1:5]))}
		rest := b[5:]
		ip, n, err := parseAddrAt(rest, is6)
		if err != nil {
			return nil, fmt.Errorf("mrt: truncated peer entry")
		}
		pe.IP = ip
		rest = rest[n:]
		if len(rest) < asLen {
			return nil, fmt.Errorf("mrt: truncated peer entry")
		}
		if asLen == 4 {
			pe.AS = bgp.ASN(binary.BigEndian.Uint32(rest[:4]))
		} else {
			pe.AS = bgp.ASN(binary.BigEndian.Uint16(rest[:2]))
		}
		p.Peers = append(p.Peers, pe)
		b = b[5+n+asLen:]
	}
	return p, nil
}

// RIBPeerRoute is one peer's route for the prefix of a RIB entry.
type RIBPeerRoute struct {
	PeerIndex  uint16
	Originated time.Time
	Attrs      []bgp.PathAttr
}

// RIBEntry is a TABLE_DUMP_V2 RIB_IPV4_UNICAST or RIB_IPV6_UNICAST record
// (the subtype follows the prefix's family): every peer's route for one
// prefix at snapshot time.
type RIBEntry struct {
	Timestamp time.Time
	Sequence  uint32
	Prefix    prefix.Prefix
	Routes    []RIBPeerRoute
}

func (r *RIBEntry) Time() time.Time { return r.Timestamp }
func (r *RIBEntry) typeSubtype() (uint16, uint16) {
	if r.Prefix.Is6() {
		return TypeTableDumpV2, SubtypeRIBIPv6Unicast
	}
	return TypeTableDumpV2, SubtypeRIBIPv4Unicast
}

func (r *RIBEntry) appendBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, r.Sequence)
	dst = append(dst, byte(r.Prefix.Bits()))
	dst = r.Prefix.AppendBytes(dst)
	if len(r.Routes) > 0xffff {
		return nil, fmt.Errorf("mrt: too many RIB routes")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Routes)))
	for _, rt := range r.Routes {
		dst = binary.BigEndian.AppendUint16(dst, rt.PeerIndex)
		dst = binary.BigEndian.AppendUint32(dst, uint32(rt.Originated.Unix()))
		attrs, err := marshalAttrs(rt.Attrs)
		if err != nil {
			return nil, err
		}
		if len(attrs) > 0xffff {
			return nil, fmt.Errorf("mrt: RIB attributes too long")
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
		dst = append(dst, attrs...)
	}
	return dst, nil
}

// maxRIBAttrLen bounds one RIB route's attribute block: the attributes
// of one BGP UPDATE, which a 4096-byte message (RFC 4271 §4.1) carries
// after its header and two length fields.
const maxRIBAttrLen = bgp.MaxMessageLen - bgp.HeaderLen - 4

// RIBRoute is one peer's route in a RIB entry with its path attributes
// still encoded. Attrs aliases the Reader's record buffer: it is valid
// until the Reader's next Next or Scan.
type RIBRoute struct {
	PeerIndex  uint16
	Originated uint32 // Unix seconds
	Attrs      []byte
}

// RIBScan walks the routes of one TABLE_DUMP_V2 RIB entry in place, with
// every check the entry's decode applies: it is the one RIB body decoder,
// under both Reader.Next and Reader.Scan.
type RIBScan struct {
	Sequence uint32
	Prefix   prefix.Prefix
	left     int
	rest     []byte
}

// reset starts a walk over the RIB entry body b, checking its header.
func (s *RIBScan) reset(b []byte, is6 bool) error {
	if len(b) < 5 {
		return fmt.Errorf("mrt: short RIB entry")
	}
	s.Sequence = binary.BigEndian.Uint32(b[:4])
	bits := int(b[4])
	max := 32
	if is6 {
		max = 128
	}
	if bits > max {
		return fmt.Errorf("mrt: RIB prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 5+n+2 {
		return fmt.Errorf("mrt: truncated RIB prefix")
	}
	p, err := prefix.FromBytes(b[5:5+n], bits, is6)
	if err != nil {
		return fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	s.Prefix = p
	s.left = int(binary.BigEndian.Uint16(b[5+n:]))
	s.rest = b[5+n+2:]
	return nil
}

// More reports whether the entry has a route not yet walked.
func (s *RIBScan) More() bool { return s.left > 0 }

// Next returns the entry's next route.
func (s *RIBScan) Next() (RIBRoute, error) {
	b := s.rest
	if len(b) < 8 {
		return RIBRoute{}, fmt.Errorf("mrt: truncated RIB route")
	}
	alen := int(binary.BigEndian.Uint16(b[6:8]))
	if len(b) < 8+alen {
		return RIBRoute{}, fmt.Errorf("mrt: truncated RIB attributes")
	}
	if alen > maxRIBAttrLen {
		return RIBRoute{}, fmt.Errorf("mrt: RIB attributes: %d bytes exceed one BGP message", alen)
	}
	s.left--
	s.rest = b[8+alen:]
	return RIBRoute{
		PeerIndex:  binary.BigEndian.Uint16(b[:2]),
		Originated: binary.BigEndian.Uint32(b[2:6]),
		Attrs:      b[8 : 8+alen],
	}, nil
}

func parseRIBEntry(ts time.Time, b []byte, is6 bool) (*RIBEntry, error) {
	var s RIBScan
	if err := s.reset(b, is6); err != nil {
		return nil, err
	}
	r := &RIBEntry{Timestamp: ts, Sequence: s.Sequence, Prefix: s.Prefix}
	for s.More() {
		rt, err := s.Next()
		if err != nil {
			return nil, err
		}
		attrs, err := bgp.ParseAttrs(rt.Attrs, bgp.DefaultOptions)
		if err != nil {
			return nil, fmt.Errorf("mrt: RIB attributes: %w", err)
		}
		r.Routes = append(r.Routes, RIBPeerRoute{
			PeerIndex:  rt.PeerIndex,
			Originated: time.Unix(int64(rt.Originated), 0).UTC(),
			Attrs:      attrs,
		})
	}
	return r, nil
}

// marshalAttrs encodes a bare path-attribute block by round-tripping
// through an UPDATE body, reusing the bgp package's attribute codec.
func marshalAttrs(attrs []bgp.PathAttr) ([]byte, error) {
	u := &bgp.Update{Attrs: attrs}
	msg, err := bgp.Marshal(u, bgp.DefaultOptions)
	if err != nil {
		return nil, err
	}
	body := msg[bgp.HeaderLen:]
	// body = 2-byte withdrawn len (0) + 2-byte attr len + attrs
	attrLen := int(binary.BigEndian.Uint16(body[2:4]))
	return body[4 : 4+attrLen], nil
}

// Marshal encodes a full MRT record (common header + body).
func Marshal(r Record) ([]byte, error) {
	typ, sub := r.typeSubtype()
	hdr := make([]byte, 0, 12)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(r.Time().Unix()))
	hdr = binary.BigEndian.AppendUint16(hdr, typ)
	hdr = binary.BigEndian.AppendUint16(hdr, sub)
	body, err := r.appendBody(nil)
	if err != nil {
		return nil, err
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	return append(hdr, body...), nil
}

// Writer writes MRT records to an underlying stream.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes and writes one record.
func (w *Writer) Write(r Record) error {
	b, err := Marshal(r)
	if err != nil {
		return err
	}
	_, err = w.w.Write(b)
	return err
}

// Reader reads MRT records from an underlying stream into one record
// buffer it reuses; decoded records never alias it.
type Reader struct {
	r    io.Reader
	hdr  [12]byte
	buf  []byte
	scan RIBScan
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// maxRecordLen bounds a single MRT record; real RIB entries stay far below
// this, and the cap keeps a corrupt length field from allocating gigabytes.
const maxRecordLen = 1 << 20

// record reads the next record's header and body. The body aliases r.buf
// until the next call.
func (r *Reader) record() (ts time.Time, typ, sub uint16, body []byte, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("mrt: truncated header: %w", err)
		}
		return time.Time{}, 0, 0, nil, err
	}
	ts = time.Unix(int64(binary.BigEndian.Uint32(r.hdr[:4])), 0).UTC()
	typ = binary.BigEndian.Uint16(r.hdr[4:6])
	sub = binary.BigEndian.Uint16(r.hdr[6:8])
	length := binary.BigEndian.Uint32(r.hdr[8:12])
	if length > maxRecordLen {
		return time.Time{}, 0, 0, nil, fmt.Errorf("mrt: record length %d exceeds cap", length)
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	body = r.buf[:length]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return time.Time{}, 0, 0, nil, fmt.Errorf("mrt: truncated body: %w", err)
	}
	return ts, typ, sub, body, nil
}

// ribFamily reports whether typ/sub is a TABLE_DUMP_V2 RIB entry, and of
// which family.
func ribFamily(typ, sub uint16) (is6, ok bool) {
	switch {
	case typ == TypeTableDumpV2 && sub == SubtypeRIBIPv4Unicast:
		return false, true
	case typ == TypeTableDumpV2 && sub == SubtypeRIBIPv6Unicast:
		return true, true
	}
	return false, false
}

// Next reads the next record. It returns io.EOF at a clean end of stream.
func (r *Reader) Next() (Record, error) {
	ts, typ, sub, body, err := r.record()
	if err != nil {
		return nil, err
	}
	if is6, ok := ribFamily(typ, sub); ok {
		return parseRIBEntry(ts, body, is6)
	}
	return decodeRecord(ts, typ, sub, body)
}

// Scan reads the next record like Next, except that a TABLE_DUMP_V2 RIB
// entry is not decoded: Scan returns a nil Record and a RIBScan over the
// entry's routes in the Reader's buffer, valid until the next call. Other
// records come back decoded, with a nil RIBScan. It returns io.EOF at a
// clean end of stream.
func (r *Reader) Scan() (Record, *RIBScan, error) {
	ts, typ, sub, body, err := r.record()
	if err != nil {
		return nil, nil, err
	}
	if is6, ok := ribFamily(typ, sub); ok {
		if err := r.scan.reset(body, is6); err != nil {
			return nil, nil, err
		}
		return nil, &r.scan, nil
	}
	rec, err := decodeRecord(ts, typ, sub, body)
	return rec, nil, err
}

func decodeRecord(ts time.Time, typ, sub uint16, body []byte) (Record, error) {
	switch {
	case typ == TypeBGP4MP && sub == SubtypeBGP4MPMessageAS4:
		return parseBGP4MP(ts, body)
	case typ == TypeTableDumpV2 && sub == SubtypePeerIndexTable:
		return parsePeerIndexTable(ts, body)
	}
	return nil, fmt.Errorf("mrt: unsupported record type %d subtype %d", typ, sub)
}
