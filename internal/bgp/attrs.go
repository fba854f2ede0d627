package bgp

import (
	"encoding/binary"
	"fmt"

	"artemis/internal/prefix"
)

// AttrCode identifies a path attribute type (RFC 4271 §5).
type AttrCode uint8

const (
	AttrOrigin          AttrCode = 1
	AttrASPath          AttrCode = 2
	AttrNextHop         AttrCode = 3
	AttrMED             AttrCode = 4
	AttrLocalPref       AttrCode = 5
	AttrAtomicAggregate AttrCode = 6
	AttrAggregator      AttrCode = 7
	AttrCommunities     AttrCode = 8
	AttrMPReachNLRI     AttrCode = 14
	AttrMPUnreachNLRI   AttrCode = 15
	AttrAS4Path         AttrCode = 17
)

// Address family identifiers (RFC 4760). The codec types AFI 2 (IPv6)
// unicast; other AFI/SAFI pairs are preserved as RawAttr.
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2

	SAFIUnicast uint8 = 1
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// PathAttr is a decoded BGP path attribute.
type PathAttr interface {
	Code() AttrCode
	// appendValue appends only the attribute value (no type/flags/length).
	appendValue(dst []byte, opt Options) ([]byte, error)
	flags() uint8
}

// Origin values (RFC 4271 §5.1.1).
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// OriginAttr is ORIGIN (type 1).
type OriginAttr struct{ Value uint8 }

func (*OriginAttr) Code() AttrCode { return AttrOrigin }
func (*OriginAttr) flags() uint8   { return flagTransitive }
func (o *OriginAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	return append(dst, o.Value), nil
}

// AS path segment types (RFC 4271 §5.1.2).
const (
	SegSet      uint8 = 1
	SegSequence uint8 = 2
)

// ASPathSegment is one segment of an AS_PATH.
type ASPathSegment struct {
	Type uint8 // SegSet or SegSequence
	ASNs []ASN
}

// ASPathAttr is AS_PATH (type 2).
type ASPathAttr struct{ Segments []ASPathSegment }

// NewASPath builds a single-sequence AS_PATH, the form every route in the
// simulator carries.
func NewASPath(path []ASN) *ASPathAttr {
	if len(path) == 0 {
		return &ASPathAttr{}
	}
	return &ASPathAttr{Segments: []ASPathSegment{{Type: SegSequence, ASNs: path}}}
}

func (*ASPathAttr) Code() AttrCode { return AttrASPath }
func (*ASPathAttr) flags() uint8   { return flagTransitive }

// Flatten expands sequence segments in order; set segments are appended in
// their listed order too (the simulator never aggregates, so sets only
// appear in hand-crafted inputs).
func (a *ASPathAttr) Flatten() []ASN {
	var out []ASN
	for _, s := range a.Segments {
		out = append(out, s.ASNs...)
	}
	return out
}

func (a *ASPathAttr) appendValue(dst []byte, opt Options) ([]byte, error) {
	for _, s := range a.Segments {
		if len(s.ASNs) > 255 {
			return nil, fmt.Errorf("bgp: AS_PATH segment with %d ASNs", len(s.ASNs))
		}
		dst = append(dst, s.Type, byte(len(s.ASNs)))
		for _, asn := range s.ASNs {
			if opt.AS4 {
				dst = binary.BigEndian.AppendUint32(dst, uint32(asn))
			} else {
				w := asn
				if w > 0xffff {
					w = ASTrans
				}
				dst = binary.BigEndian.AppendUint16(dst, uint16(w))
			}
		}
	}
	return dst, nil
}

// nextSegment splits the first segment off an encoded AS path of the
// given ASN width: its type, its ASNs still encoded, and the rest. It holds
// every AS_PATH check, so parseASPath and appendASPath accept the same
// paths.
func nextSegment(b []byte, width int) (typ uint8, asns, rest []byte, err error) {
	if len(b) < 2 {
		return 0, nil, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedASPath, nil, "bgp: truncated AS_PATH segment header")
	}
	typ, n := b[0], int(b[1])
	if typ != SegSet && typ != SegSequence {
		return 0, nil, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedASPath, nil, fmt.Sprintf("bgp: AS_PATH segment type %d", typ))
	}
	if len(b) < 2+n*width {
		return 0, nil, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedASPath, nil, "bgp: truncated AS_PATH segment")
	}
	return typ, b[2 : 2+n*width], b[2+n*width:], nil
}

func asnWidth(as4 bool) int {
	if as4 {
		return 4
	}
	return 2
}

// appendASNs decodes a run of encoded ASNs onto dst.
func appendASNs(dst []ASN, b []byte, width int) []ASN {
	for off := 0; off < len(b); off += width {
		if width == 4 {
			dst = append(dst, ASN(binary.BigEndian.Uint32(b[off:])))
		} else {
			dst = append(dst, ASN(binary.BigEndian.Uint16(b[off:])))
		}
	}
	return dst
}

func parseASPath(b []byte, as4 bool) (*ASPathAttr, error) {
	a := &ASPathAttr{}
	width := asnWidth(as4)
	for len(b) > 0 {
		typ, asns, rest, err := nextSegment(b, width)
		if err != nil {
			return nil, err
		}
		a.Segments = append(a.Segments, ASPathSegment{Type: typ, ASNs: appendASNs(make([]ASN, 0, len(asns)/width), asns, width)})
		b = rest
	}
	return a, nil
}

// appendASPath appends the flattened AS path encoded in b to dst, the
// form ASPathAttr.Flatten returns.
func appendASPath(dst []ASN, b []byte, as4 bool) ([]ASN, error) {
	width := asnWidth(as4)
	for len(b) > 0 {
		_, asns, rest, err := nextSegment(b, width)
		if err != nil {
			return dst, err
		}
		dst = appendASNs(dst, asns, width)
		b = rest
	}
	return dst, nil
}

// NextHopAttr is NEXT_HOP (type 3). It is IPv4-only by definition
// (RFC 4271); a v6 next hop travels inside MP_REACH_NLRI.
type NextHopAttr struct{ Addr prefix.Addr }

func (*NextHopAttr) Code() AttrCode { return AttrNextHop }
func (*NextHopAttr) flags() uint8   { return flagTransitive }
func (n *NextHopAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	if n.Addr.Is6() {
		return nil, fmt.Errorf("bgp: NEXT_HOP cannot carry a v6 address (use MP_REACH_NLRI)")
	}
	return binary.BigEndian.AppendUint32(dst, n.Addr.V4()), nil
}

// MEDAttr is MULTI_EXIT_DISC (type 4).
type MEDAttr struct{ Value uint32 }

func (*MEDAttr) Code() AttrCode { return AttrMED }
func (*MEDAttr) flags() uint8   { return flagOptional }
func (m *MEDAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	return binary.BigEndian.AppendUint32(dst, m.Value), nil
}

// LocalPrefAttr is LOCAL_PREF (type 5).
type LocalPrefAttr struct{ Value uint32 }

func (*LocalPrefAttr) Code() AttrCode { return AttrLocalPref }
func (*LocalPrefAttr) flags() uint8   { return flagTransitive }
func (l *LocalPrefAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	return binary.BigEndian.AppendUint32(dst, l.Value), nil
}

// AtomicAggregateAttr is ATOMIC_AGGREGATE (type 6).
type AtomicAggregateAttr struct{}

func (*AtomicAggregateAttr) Code() AttrCode { return AttrAtomicAggregate }
func (*AtomicAggregateAttr) flags() uint8   { return flagTransitive }
func (*AtomicAggregateAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	return dst, nil
}

// AggregatorAttr is AGGREGATOR (type 7), 4-octet-AS form.
type AggregatorAttr struct {
	ASN  ASN
	Addr prefix.Addr
}

func (*AggregatorAttr) Code() AttrCode { return AttrAggregator }
func (*AggregatorAttr) flags() uint8   { return flagOptional | flagTransitive }
func (a *AggregatorAttr) appendValue(dst []byte, opt Options) ([]byte, error) {
	if opt.AS4 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(a.ASN))
	} else {
		w := a.ASN
		if w > 0xffff {
			w = ASTrans
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(w))
	}
	if a.Addr.Is6() {
		return nil, fmt.Errorf("bgp: AGGREGATOR address must be v4")
	}
	return binary.BigEndian.AppendUint32(dst, a.Addr.V4()), nil
}

// MPReachNLRIAttr is MP_REACH_NLRI (type 14, RFC 4760) for IPv6 unicast:
// the reachable v6 prefixes with their v6 next hop. The codec synthesizes
// it when an Update's NLRI contains v6 prefixes and folds it back into
// Update.NLRI on parse, so consumers see one dual-stack prefix list.
type MPReachNLRIAttr struct {
	NextHop prefix.Addr // a v6 address; the zero v6 address (::) when unknown
	NLRI    []prefix.Prefix
}

func (*MPReachNLRIAttr) Code() AttrCode { return AttrMPReachNLRI }
func (*MPReachNLRIAttr) flags() uint8   { return flagOptional }
func (m *MPReachNLRIAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	nh := m.NextHop
	if !nh.Is6() {
		if nh != (prefix.Addr{}) {
			return nil, fmt.Errorf("bgp: MP_REACH_NLRI next hop must be v6")
		}
		nh = prefix.AddrFrom16(0, 0) // unspecified ::
	}
	dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
	dst = append(dst, SAFIUnicast, 16)
	b := nh.As16()
	dst = append(dst, b[:]...)
	dst = append(dst, 0) // reserved
	for _, p := range m.NLRI {
		if !p.Is6() {
			return nil, fmt.Errorf("bgp: v4 prefix %s in MP_REACH_NLRI", p)
		}
	}
	return appendNLRI(dst, m.NLRI), nil
}

// MPUnreachNLRIAttr is MP_UNREACH_NLRI (type 15, RFC 4760) for IPv6
// unicast: withdrawn v6 prefixes. Folded into Update.Withdrawn on parse.
type MPUnreachNLRIAttr struct {
	Withdrawn []prefix.Prefix
}

func (*MPUnreachNLRIAttr) Code() AttrCode { return AttrMPUnreachNLRI }
func (*MPUnreachNLRIAttr) flags() uint8   { return flagOptional }
func (m *MPUnreachNLRIAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, AFIIPv6)
	dst = append(dst, SAFIUnicast)
	for _, p := range m.Withdrawn {
		if !p.Is6() {
			return nil, fmt.Errorf("bgp: v4 prefix %s in MP_UNREACH_NLRI", p)
		}
	}
	return appendNLRI(dst, m.Withdrawn), nil
}

func parseMPReach(fl uint8, val []byte) (PathAttr, error) {
	if len(val) < 5 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, "bgp: short MP_REACH_NLRI")
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		// Not a family the codec models: preserve verbatim.
		return &RawAttr{AttrFlags: fl, AttrCode: AttrMPReachNLRI, Value: append([]byte(nil), val...)}, nil
	}
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, "bgp: truncated MP_REACH_NLRI next hop")
	}
	a := &MPReachNLRIAttr{}
	// RFC 4760 allows a global (16) or global+link-local (32) next hop; the
	// link-local half carries no routing information here and is dropped.
	if nhLen != 16 && nhLen != 32 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, fmt.Sprintf("bgp: MP_REACH_NLRI next hop length %d", nhLen))
	}
	a.NextHop = prefix.AddrFrom16Bytes(val[4:])
	nlri, err := parseNLRI(val[4+nhLen+1:], true)
	if err != nil {
		return nil, err
	}
	a.NLRI = nlri
	return a, nil
}

func parseMPUnreach(fl uint8, val []byte) (PathAttr, error) {
	if len(val) < 3 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, "bgp: short MP_UNREACH_NLRI")
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		return &RawAttr{AttrFlags: fl, AttrCode: AttrMPUnreachNLRI, Value: append([]byte(nil), val...)}, nil
	}
	wd, err := parseNLRI(val[3:], true)
	if err != nil {
		return nil, err
	}
	return &MPUnreachNLRIAttr{Withdrawn: wd}, nil
}

// Community is a BGP community value (RFC 1997).
type Community uint32

// CommunitiesAttr is COMMUNITIES (type 8).
type CommunitiesAttr struct{ Communities []Community }

func (*CommunitiesAttr) Code() AttrCode { return AttrCommunities }
func (*CommunitiesAttr) flags() uint8   { return flagOptional | flagTransitive }
func (c *CommunitiesAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	for _, v := range c.Communities {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	return dst, nil
}

// RawAttr preserves an attribute the codec does not model. Flags are kept
// verbatim so optional transitive attributes survive a decode/encode cycle.
type RawAttr struct {
	AttrFlags uint8
	AttrCode  AttrCode
	Value     []byte
}

func (r *RawAttr) Code() AttrCode { return r.AttrCode }
func (r *RawAttr) flags() uint8   { return r.AttrFlags &^ flagExtLen }
func (r *RawAttr) appendValue(dst []byte, _ Options) ([]byte, error) {
	return append(dst, r.Value...), nil
}

func appendAttr(dst []byte, a PathAttr, opt Options) ([]byte, error) {
	val, err := a.appendValue(nil, opt)
	if err != nil {
		return nil, err
	}
	fl := a.flags()
	if len(val) > 255 {
		fl |= flagExtLen
	}
	dst = append(dst, fl, byte(a.Code()))
	if fl&flagExtLen != 0 {
		if len(val) > 0xffff {
			return nil, fmt.Errorf("bgp: attribute %d value too long", a.Code())
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	} else {
		dst = append(dst, byte(len(val)))
	}
	return append(dst, val...), nil
}

// attrWalker splits a path-attribute block into its attributes, one per
// next call, with the framing checks and the duplicate-code check. It is
// the one place an attribute block is split: parseAttrs decodes every
// attribute it yields, AppendASPath only AS_PATH.
type attrWalker struct {
	b    []byte
	seen [256]bool
}

func (w *attrWalker) next() (fl uint8, code AttrCode, val []byte, err error) {
	b := w.b
	if len(b) < 3 {
		return 0, 0, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, "bgp: truncated attribute header")
	}
	fl, code = b[0], AttrCode(b[1])
	var vlen, hlen int
	if fl&flagExtLen != 0 {
		if len(b) < 4 {
			return 0, 0, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, "bgp: truncated extended length")
		}
		vlen, hlen = int(binary.BigEndian.Uint16(b[2:4])), 4
	} else {
		vlen, hlen = int(b[2]), 3
	}
	if len(b) < hlen+vlen {
		return 0, 0, nil, NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, "bgp: truncated attribute value")
	}
	val = b[hlen : hlen+vlen]
	w.b = b[hlen+vlen:]
	if w.seen[code] {
		return 0, 0, nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, fmt.Sprintf("bgp: duplicate attribute %d", code))
	}
	w.seen[code] = true
	return fl, code, val, nil
}

func parseAttrs(b []byte, opt Options) ([]PathAttr, error) {
	var out []PathAttr
	w := attrWalker{b: b}
	for len(w.b) > 0 {
		fl, code, val, err := w.next()
		if err != nil {
			return nil, err
		}
		a, err := parseAttrValue(fl, code, val, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseAttrs decodes a bare path-attribute block, the form a
// TABLE_DUMP_V2 RIB route carries (RFC 6396 §4.3.4), exactly as the
// attributes of an UPDATE with no classic NLRI decode: MP_REACH_NLRI and
// MP_UNREACH_NLRI fold away (a non-:: v6 next hop is kept), and
// MP_REACH_NLRI prefixes require ORIGIN and AS_PATH.
func ParseAttrs(b []byte, opt Options) ([]PathAttr, error) {
	attrs, err := parseAttrs(b, opt)
	if err != nil {
		return nil, err
	}
	attrs, nlri, _ := foldMP(attrs)
	if len(nlri) > 0 {
		if err := checkMandatoryAttrs(attrs, false); err != nil {
			return nil, err
		}
	}
	return attrs, nil
}

// AppendASPath appends the flattened AS_PATH of a bare path-attribute
// block to dst and reports whether the block has an AS_PATH. It accepts
// exactly the blocks ParseAttrs accepts, but decodes only AS_PATH, and
// that straight into dst: the other attributes are checked, not built.
func AppendASPath(b []byte, opt Options, dst []ASN) ([]ASN, bool, error) {
	w := attrWalker{b: b}
	mpNLRI := false
	for len(w.b) > 0 {
		fl, code, val, err := w.next()
		if err != nil {
			return dst, false, err
		}
		switch code {
		case AttrASPath:
			dst, err = appendASPath(dst, val, opt.AS4)
		case AttrAS4Path, AttrMPReachNLRI, AttrMPUnreachNLRI:
			// Rare in a RIB: checked by building them.
			var a PathAttr
			a, err = parseAttrValue(fl, code, val, opt)
			if mp, ok := a.(*MPReachNLRIAttr); ok {
				mpNLRI = len(mp.NLRI) > 0
			}
		default:
			err = checkAttrValue(fl, code, val, opt)
		}
		if err != nil {
			return dst, false, err
		}
	}
	if mpNLRI {
		if err := missingMandatory(&w.seen, false); err != nil {
			return dst, false, err
		}
	}
	return dst, w.seen[AttrASPath], nil
}

func fixedLen(code AttrCode, val []byte, want int) error {
	if len(val) != want {
		return NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, fmt.Sprintf("bgp: attribute %d length %d, want %d", code, len(val), want))
	}
	return nil
}

// checkAttrValue holds the value checks of every attribute whose value
// needs no decoding to check; parseAttrValue builds on it. AS_PATH,
// AS4_PATH and the MP attributes are checked by decoding them and pass
// here.
func checkAttrValue(fl uint8, code AttrCode, val []byte, opt Options) error {
	switch code {
	case AttrASPath, AttrAS4Path, AttrMPReachNLRI, AttrMPUnreachNLRI:
		return nil
	case AttrOrigin:
		if err := fixedLen(code, val, 1); err != nil {
			return err
		}
		if val[0] > OriginIncomplete {
			return NewMessageError(ErrUpdateMessage, ErrSubInvalidOriginAttribute, []byte{val[0]}, fmt.Sprintf("bgp: origin %d", val[0]))
		}
		return nil
	case AttrNextHop, AttrMED, AttrLocalPref:
		return fixedLen(code, val, 4)
	case AttrAtomicAggregate:
		return fixedLen(code, val, 0)
	case AttrAggregator:
		want := 6
		if opt.AS4 {
			want = 8
		}
		return fixedLen(code, val, want)
	case AttrCommunities:
		if len(val)%4 != 0 {
			return NewMessageError(ErrUpdateMessage, ErrSubAttributeLengthError, nil, "bgp: COMMUNITIES length not a multiple of 4")
		}
		return nil
	}
	if fl&flagOptional == 0 {
		return NewMessageError(ErrUpdateMessage, ErrSubUnrecognizedWellKnownAttr, []byte{byte(code)}, fmt.Sprintf("bgp: unrecognized well-known attribute %d", code))
	}
	return nil
}

func parseAttrValue(fl uint8, code AttrCode, val []byte, opt Options) (PathAttr, error) {
	if err := checkAttrValue(fl, code, val, opt); err != nil {
		return nil, err
	}
	switch code {
	case AttrOrigin:
		return &OriginAttr{Value: val[0]}, nil
	case AttrASPath:
		return parseASPath(val, opt.AS4)
	case AttrAS4Path:
		// AS4_PATH is always 4-octet regardless of session capability.
		ap, err := parseASPath(val, true)
		if err != nil {
			return nil, err
		}
		return &RawAttr{AttrFlags: fl, AttrCode: code, Value: mustValue(ap, Options{AS4: true})}, nil
	case AttrNextHop:
		return &NextHopAttr{Addr: prefix.AddrFrom4(binary.BigEndian.Uint32(val))}, nil
	case AttrMPReachNLRI:
		return parseMPReach(fl, val)
	case AttrMPUnreachNLRI:
		return parseMPUnreach(fl, val)
	case AttrMED:
		return &MEDAttr{Value: binary.BigEndian.Uint32(val)}, nil
	case AttrLocalPref:
		return &LocalPrefAttr{Value: binary.BigEndian.Uint32(val)}, nil
	case AttrAtomicAggregate:
		return &AtomicAggregateAttr{}, nil
	case AttrAggregator:
		if opt.AS4 {
			return &AggregatorAttr{ASN: ASN(binary.BigEndian.Uint32(val[:4])), Addr: prefix.AddrFrom4(binary.BigEndian.Uint32(val[4:]))}, nil
		}
		return &AggregatorAttr{ASN: ASN(binary.BigEndian.Uint16(val[:2])), Addr: prefix.AddrFrom4(binary.BigEndian.Uint32(val[2:]))}, nil
	case AttrCommunities:
		c := &CommunitiesAttr{Communities: make([]Community, len(val)/4)}
		for i := range c.Communities {
			c.Communities[i] = Community(binary.BigEndian.Uint32(val[4*i:]))
		}
		return c, nil
	default:
		return &RawAttr{AttrFlags: fl, AttrCode: code, Value: append([]byte(nil), val...)}, nil
	}
}

func mustValue(a PathAttr, opt Options) []byte {
	v, err := a.appendValue(nil, opt)
	if err != nil {
		panic(err)
	}
	return v
}
