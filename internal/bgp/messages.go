package bgp

import (
	"encoding/binary"
	"fmt"

	"artemis/internal/prefix"
)

// --- OPEN ---

// Open is the BGP OPEN message (RFC 4271 §4.2). A 4-octet local ASN is
// carried in the Four-Octet-AS capability with AS_TRANS in the fixed field,
// exactly as RFC 6793 specifies; Open.ASN always exposes the real ASN.
type Open struct {
	Version  uint8 // always 4
	ASN      ASN
	HoldTime uint16 // seconds; 0 disables keepalives
	RouterID prefix.Addr
	Caps     []Capability
}

// Capability is a BGP capability (RFC 5492) from the OPEN optional
// parameters.
type Capability struct {
	Code  uint8
	Value []byte
}

// Capability codes used by the reproduction.
const (
	CapCodeFourOctetAS uint8 = 65
	capParamType       uint8 = 2
)

// NewOpen builds an OPEN for a 4-octet-AS speaker.
func NewOpen(asn ASN, holdTime uint16, routerID prefix.Addr) *Open {
	return &Open{Version: 4, ASN: asn, HoldTime: holdTime, RouterID: routerID,
		Caps: []Capability{FourOctetASCap(asn)}}
}

// FourOctetASCap returns the RFC 6793 capability advertising asn.
func FourOctetASCap(asn ASN) Capability {
	v := make([]byte, 4)
	binary.BigEndian.PutUint32(v, uint32(asn))
	return Capability{Code: CapCodeFourOctetAS, Value: v}
}

// FourOctetAS extracts the peer's 4-octet ASN from its capabilities.
func (o *Open) FourOctetAS() (ASN, bool) {
	for _, c := range o.Caps {
		if c.Code == CapCodeFourOctetAS && len(c.Value) == 4 {
			return ASN(binary.BigEndian.Uint32(c.Value)), true
		}
	}
	return 0, false
}

func (*Open) Type() MessageType { return MsgOpen }

func (o *Open) marshalBody(dst []byte, _ Options) ([]byte, error) {
	dst = append(dst, o.Version)
	wireAS := o.ASN
	if wireAS > 0xffff {
		wireAS = ASTrans
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(wireAS))
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	// A router ID is a 32-bit value even on v6-only speakers (RFC 6286);
	// reject a v6 address rather than silently truncating it.
	if o.RouterID.Is6() {
		return nil, fmt.Errorf("bgp: router ID must be a 32-bit (v4-form) identifier")
	}
	dst = binary.BigEndian.AppendUint32(dst, o.RouterID.V4())
	// Optional parameters: each capability in its own parameter, the common
	// layout emitted by real speakers.
	var params []byte
	for _, c := range o.Caps {
		if len(c.Value) > 255 {
			return nil, fmt.Errorf("bgp: capability %d value too long", c.Code)
		}
		params = append(params, capParamType, byte(2+len(c.Value)), c.Code, byte(len(c.Value)))
		params = append(params, c.Value...)
	}
	if len(params) > 255 {
		return nil, fmt.Errorf("bgp: optional parameters too long (%d bytes)", len(params))
	}
	dst = append(dst, byte(len(params)))
	return append(dst, params...), nil
}

func parseOpen(b []byte) (*Open, error) {
	if len(b) < 10 {
		return nil, NewMessageError(ErrOpenMessage, ErrSubBadMessageLength, nil, "bgp: short OPEN")
	}
	o := &Open{
		Version:  b[0],
		ASN:      ASN(binary.BigEndian.Uint16(b[1:3])),
		HoldTime: binary.BigEndian.Uint16(b[3:5]),
		RouterID: prefix.AddrFrom4(binary.BigEndian.Uint32(b[5:9])),
	}
	if o.Version != 4 {
		return nil, NewMessageError(ErrOpenMessage, ErrSubUnsupportedVersionNumber, []byte{0, 4}, fmt.Sprintf("bgp: version %d", o.Version))
	}
	optLen := int(b[9])
	opts := b[10:]
	if len(opts) != optLen {
		return nil, NewMessageError(ErrOpenMessage, ErrSubBadMessageLength, nil, "bgp: OPEN optional parameter length mismatch")
	}
	for len(opts) > 0 {
		if len(opts) < 2 {
			return nil, NewMessageError(ErrOpenMessage, ErrSubBadMessageLength, nil, "bgp: truncated optional parameter")
		}
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, NewMessageError(ErrOpenMessage, ErrSubBadMessageLength, nil, "bgp: truncated optional parameter")
		}
		val := opts[2 : 2+plen]
		opts = opts[2+plen:]
		if ptype != capParamType {
			continue // unknown parameter types are skipped
		}
		for len(val) > 0 {
			if len(val) < 2 || len(val) < 2+int(val[1]) {
				return nil, NewMessageError(ErrOpenMessage, ErrSubBadMessageLength, nil, "bgp: truncated capability")
			}
			clen := int(val[1])
			o.Caps = append(o.Caps, Capability{Code: val[0], Value: append([]byte(nil), val[2:2+clen]...)})
			val = val[2+clen:]
		}
	}
	if as4, ok := o.FourOctetAS(); ok {
		o.ASN = as4
	}
	return o, nil
}

// --- UPDATE ---

// Update is the BGP UPDATE message (RFC 4271 §4.3), dual-stack: NLRI and
// Withdrawn may mix v4 and v6 prefixes. On the wire, v4 prefixes travel in
// the classic UPDATE fields and v6 prefixes in MP_REACH_NLRI /
// MP_UNREACH_NLRI attributes (RFC 4760); Marshal splits by family and
// parse folds the MP attributes back, so consumers never see the split.
type Update struct {
	Withdrawn []prefix.Prefix
	Attrs     []PathAttr
	NLRI      []prefix.Prefix
}

func (*Update) Type() MessageType { return MsgUpdate }

func (u *Update) marshalBody(dst []byte, opt Options) ([]byte, error) {
	nlri4, nlri6 := splitFamily(u.NLRI)
	wd4, wd6 := splitFamily(u.Withdrawn)

	wd := appendNLRI(nil, wd4)
	if len(wd) > 0xffff {
		return nil, fmt.Errorf("bgp: withdrawn routes too long")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wd)))
	dst = append(dst, wd...)

	// v6 prefixes ride in MP attributes after the caller's other attrs. An
	// explicit MPReachNLRIAttr/MPUnreachNLRIAttr in u.Attrs (a caller
	// supplying a real v6 next hop, or one retained by parse) is merged
	// with the prefixes split from NLRI/Withdrawn so exactly one of each
	// attribute is emitted. The caller's slices are not mutated.
	var mpReach *MPReachNLRIAttr
	var mpUnreach *MPUnreachNLRIAttr
	// An MP attribute for an AFI/SAFI this codec does not model survives
	// parse as a RawAttr with code 14/15; it cannot be merged with the
	// typed form, and emitting both would put duplicate attribute codes on
	// the wire, which every conforming parser rejects.
	var rawMPReach, rawMPUnreach bool
	allAttrs := make([]PathAttr, 0, len(u.Attrs)+2)
	for _, a := range u.Attrs {
		switch mp := a.(type) {
		case *MPReachNLRIAttr:
			if mpReach != nil || rawMPReach {
				return nil, fmt.Errorf("bgp: duplicate MP_REACH_NLRI attribute")
			}
			cp := *mp
			cp.NLRI = append([]prefix.Prefix(nil), mp.NLRI...)
			mpReach = &cp
		case *MPUnreachNLRIAttr:
			if mpUnreach != nil || rawMPUnreach {
				return nil, fmt.Errorf("bgp: duplicate MP_UNREACH_NLRI attribute")
			}
			cp := *mp
			cp.Withdrawn = append([]prefix.Prefix(nil), mp.Withdrawn...)
			mpUnreach = &cp
		case *RawAttr:
			switch mp.AttrCode {
			case AttrMPReachNLRI:
				if mpReach != nil || rawMPReach {
					return nil, fmt.Errorf("bgp: duplicate MP_REACH_NLRI attribute")
				}
				rawMPReach = true
			case AttrMPUnreachNLRI:
				if mpUnreach != nil || rawMPUnreach {
					return nil, fmt.Errorf("bgp: duplicate MP_UNREACH_NLRI attribute")
				}
				rawMPUnreach = true
			}
			allAttrs = append(allAttrs, a)
		default:
			allAttrs = append(allAttrs, a)
		}
	}
	if len(wd6) > 0 {
		if mpUnreach == nil {
			mpUnreach = &MPUnreachNLRIAttr{}
		}
		mpUnreach.Withdrawn = append(mpUnreach.Withdrawn, wd6...)
	}
	if len(nlri6) > 0 {
		if mpReach == nil {
			mpReach = &MPReachNLRIAttr{}
		}
		mpReach.NLRI = append(mpReach.NLRI, nlri6...)
	}
	if mpUnreach != nil && len(mpUnreach.Withdrawn) > 0 {
		if rawMPUnreach {
			return nil, fmt.Errorf("bgp: v6 withdrawals cannot share an UPDATE with an unmodeled MP_UNREACH_NLRI attribute")
		}
		allAttrs = append(allAttrs, mpUnreach)
	}
	// An MP_REACH with no NLRI carries nothing (its next hop is meaningless
	// without routes) and is dropped rather than emitted empty.
	if mpReach != nil && len(mpReach.NLRI) > 0 {
		if rawMPReach {
			return nil, fmt.Errorf("bgp: v6 NLRI cannot share an UPDATE with an unmodeled MP_REACH_NLRI attribute")
		}
		allAttrs = append(allAttrs, mpReach)
	}
	var attrs []byte
	for _, a := range allAttrs {
		var err error
		attrs, err = appendAttr(attrs, a, opt)
		if err != nil {
			return nil, err
		}
	}
	if len(attrs) > 0xffff {
		return nil, fmt.Errorf("bgp: path attributes too long")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
	dst = append(dst, attrs...)
	return appendNLRI(dst, nlri4), nil
}

func parseUpdate(b []byte, opt Options) (*Update, error) {
	if len(b) < 4 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, "bgp: short UPDATE")
	}
	wdLen := int(binary.BigEndian.Uint16(b[:2]))
	if len(b) < 2+wdLen+2 {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, "bgp: truncated withdrawn routes")
	}
	u := &Update{}
	var err error
	if u.Withdrawn, err = parseNLRI(b[2:2+wdLen], false); err != nil {
		return nil, err
	}
	rest := b[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[:2]))
	if len(rest) < 2+attrLen {
		return nil, NewMessageError(ErrUpdateMessage, ErrSubMalformedAttributeList, nil, "bgp: truncated path attributes")
	}
	if u.Attrs, err = parseAttrs(rest[2:2+attrLen], opt); err != nil {
		return nil, err
	}
	if u.NLRI, err = parseNLRI(rest[2+attrLen:], false); err != nil {
		return nil, err
	}
	classicNLRI := len(u.NLRI) > 0
	// Fold MP attributes into the dual-stack prefix lists; the duplicate-
	// attribute check in parseAttrs guarantees at most one of each.
	var nlri6, wd6 []prefix.Prefix
	u.Attrs, nlri6, wd6 = foldMP(u.Attrs)
	u.NLRI = append(u.NLRI, nlri6...)
	u.Withdrawn = append(u.Withdrawn, wd6...)
	if classicNLRI || len(nlri6) > 0 {
		if err := checkMandatoryAttrs(u.Attrs, classicNLRI); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// foldMP takes the MP_REACH_NLRI and MP_UNREACH_NLRI attributes out of
// attrs (in place) and returns their v6 prefixes. A real (non-::) next
// hop is routing information third-party data carries, so it stays as an
// NLRI-less MPReachNLRIAttr and parse -> marshal round-trips it. An
// attribute list left empty comes back nil.
func foldMP(attrs []PathAttr) (kept []PathAttr, nlri, withdrawn []prefix.Prefix) {
	kept = attrs[:0]
	for _, a := range attrs {
		switch mp := a.(type) {
		case *MPReachNLRIAttr:
			nlri = mp.NLRI
			if mp.NextHop != prefix.AddrFrom16(0, 0) {
				kept = append(kept, &MPReachNLRIAttr{NextHop: mp.NextHop})
			}
		case *MPUnreachNLRIAttr:
			withdrawn = mp.Withdrawn
		default:
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	return kept, nlri, withdrawn
}

// checkMandatoryAttrs enforces RFC 4271 §6.3: an UPDATE that advertises
// NLRI must carry ORIGIN and AS_PATH, plus NEXT_HOP when classic (v4)
// NLRI is present — MP-only updates carry their next hop inside
// MP_REACH_NLRI (RFC 4760 §7).
func checkMandatoryAttrs(attrs []PathAttr, needNextHop bool) error {
	var seen [256]bool
	for _, a := range attrs {
		seen[a.Code()] = true
	}
	return missingMandatory(&seen, needNextHop)
}

// missingMandatory reports the first mandatory attribute absent from seen.
func missingMandatory(seen *[256]bool, needNextHop bool) error {
	for _, code := range [...]AttrCode{AttrOrigin, AttrASPath, AttrNextHop} {
		if code == AttrNextHop && !needNextHop {
			break
		}
		if !seen[code] {
			return NewMessageError(ErrUpdateMessage, ErrSubMissingWellKnownAttr, []byte{byte(code)}, fmt.Sprintf("bgp: missing mandatory attribute %d", code))
		}
	}
	return nil
}

// ASPath returns the flattened AS_PATH (sequence segments expanded in
// order) and true when present.
func (u *Update) ASPath() ([]ASN, bool) {
	for _, a := range u.Attrs {
		if ap, ok := a.(*ASPathAttr); ok {
			return ap.Flatten(), true
		}
	}
	return nil, false
}

// Origin returns the origin AS — the last element of the AS_PATH — and
// true when the path is non-empty. This is the field ARTEMIS's detector
// checks against the legitimate origin set.
func (u *Update) Origin() (ASN, bool) {
	path, ok := u.ASPath()
	if !ok || len(path) == 0 {
		return 0, false
	}
	return path[len(path)-1], true
}

// --- NOTIFICATION ---

// Notification is the BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

func (*Notification) Type() MessageType { return MsgNotification }

func (n *Notification) marshalBody(dst []byte, _ Options) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

func parseNotification(b []byte) (*Notification, error) {
	if len(b) < 2 {
		return nil, NewMessageError(ErrMessageHeader, ErrSubBadMessageLength, nil, "bgp: short NOTIFICATION")
	}
	return &Notification{Code: b[0], Subcode: b[1], Data: append([]byte(nil), b[2:]...)}, nil
}

func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code %d subcode %d", n.Code, n.Subcode)
}

// --- KEEPALIVE ---

// Keepalive is the (bodyless) BGP KEEPALIVE message.
type Keepalive struct{}

func (*Keepalive) Type() MessageType { return MsgKeepalive }

func (*Keepalive) marshalBody(dst []byte, _ Options) ([]byte, error) { return dst, nil }
