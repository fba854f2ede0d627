// Package prefix provides dual-stack (IPv4 + IPv6) prefix (CIDR) arithmetic
// for BGP routing: parsing, containment, splitting, de-aggregation, and a
// binary radix trie with longest-prefix matching.
//
// # Representation
//
// Addr is a 128-bit value (two uint64 words, network bit order: hi carries
// bits 0–63, lo bits 64–127) plus a family flag. An IPv4 address lives in
// the low 32 bits of lo with the flag clear, so the v4 fast path is a single
// 64-bit operation and every operation on either family is allocation-free.
// The family bit is preserved through parse and format: a v4 address round-
// trips through dotted-quad text exactly, and never compares equal to any
// v6 address.
//
// # v4-mapping rules
//
// The two families are distinct key spaces everywhere: 10.0.0.1 and
// ::ffff:10.0.0.1 are different addresses, 10.0.0.0/24 and a v6 prefix
// never contain one another, and the trie keeps one radix tree per family.
// ::ffff:a.b.c.d parses (the textual form is valid RFC 4291) but stays a v6
// address — BGP carries v4 and v6 NLRI in separate address families, and
// identifying them would let a v6 announcement shadow v4 owned space.
// Prefix lengths are family-relative: /24 of a v4 prefix means 24 of 32
// bits, /48 of a v6 prefix means 48 of 128.
package prefix

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 or IPv6 address. The zero value is the IPv4 address
// 0.0.0.0. Addr is comparable and usable as a map key; == distinguishes
// families.
type Addr struct {
	// hi/lo hold the address in network bit order: for v6, hi is the first
	// 8 bytes and lo the last 8; for v4 the 32-bit value sits in the low
	// half of lo with hi zero.
	hi, lo uint64
	is6    bool
}

// AddrFrom4 returns the IPv4 address with the given 32-bit value in host
// byte order (e.g. 10.0.0.1 = 0x0a000001).
func AddrFrom4(v uint32) Addr { return Addr{lo: uint64(v)} }

// AddrFrom16 returns the IPv6 address with the given 128-bit value: hi is
// the first 8 bytes in network order, lo the last 8.
func AddrFrom16(hi, lo uint64) Addr { return Addr{hi: hi, lo: lo, is6: true} }

// AddrFrom16Bytes returns the IPv6 address encoded in the first 16 bytes
// of b (network order) — the inverse of As16 for v6 addresses. It panics
// if b is shorter than 16 bytes, like the encoding/binary readers; wire
// parsers (MP_REACH next hops, MRT v6 peers) length-check first.
func AddrFrom16Bytes(b []byte) Addr {
	_ = b[15]
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[8+i])
	}
	return Addr{hi: hi, lo: lo, is6: true}
}

// Is4 reports whether the address is IPv4.
func (a Addr) Is4() bool { return !a.is6 }

// Is6 reports whether the address is IPv6.
func (a Addr) Is6() bool { return a.is6 }

// V4 returns the 32-bit value of an IPv4 address in host byte order. For a
// v6 address it returns the low 32 bits (callers should gate on Is4).
func (a Addr) V4() uint32 { return uint32(a.lo) }

// Uint128 returns the address as a 128-bit value (hi first). For a v4
// address the value occupies the low 32 bits.
func (a Addr) Uint128() (hi, lo uint64) { return a.hi, a.lo }

// MaxBits returns the address family's prefix-length bound: 32 or 128.
func (a Addr) MaxBits() int {
	if a.is6 {
		return 128
	}
	return 32
}

// As16 returns the 16-byte network-order form: the full v6 address, or the
// RFC 4291 v4-mapped form (::ffff:a.b.c.d) for a v4 address.
func (a Addr) As16() (b [16]byte) {
	hi, lo := a.hi, a.lo
	if !a.is6 {
		hi, lo = 0, 0xffff00000000|a.lo
	}
	for i := 0; i < 8; i++ {
		b[i] = byte(hi >> (56 - 8*uint(i)))
		b[8+i] = byte(lo >> (56 - 8*uint(i)))
	}
	return b
}

// Compare orders addresses: every v4 address before every v6 address, then
// numerically. It returns -1, 0, or +1.
func (a Addr) Compare(b Addr) int {
	switch {
	case !a.is6 && b.is6:
		return -1
	case a.is6 && !b.is6:
		return 1
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// Less reports a.Compare(b) < 0.
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// Next returns the address plus one, wrapping within the family (as the
// former uint32 representation did).
func (a Addr) Next() Addr {
	if !a.is6 {
		return Addr{lo: uint64(uint32(a.lo) + 1)}
	}
	lo := a.lo + 1
	hi := a.hi
	if lo == 0 {
		hi++
	}
	return Addr{hi: hi, lo: lo, is6: true}
}

// bit returns the i-th most significant bit (0-indexed, family-relative)
// of the address; used by the trie.
func (a Addr) bit(i int) int {
	if !a.is6 {
		return int(a.lo >> (31 - uint(i)) & 1)
	}
	if i < 64 {
		return int(a.hi >> (63 - uint(i)) & 1)
	}
	return int(a.lo >> (127 - uint(i)) & 1)
}

// mask returns the address ANDed with the family-relative network mask.
func (a Addr) mask(bits int) Addr {
	if !a.is6 {
		return Addr{lo: a.lo & v4mask(bits)}
	}
	mh, ml := mask128(bits)
	return Addr{hi: a.hi & mh, lo: a.lo & ml, is6: true}
}

// lastIn returns the address ORed with the family-relative host mask — the
// highest address sharing the first `bits` bits.
func (a Addr) lastIn(bits int) Addr {
	if !a.is6 {
		return Addr{lo: a.lo | (^v4mask(bits) & 0xffffffff)}
	}
	mh, ml := mask128(bits)
	return Addr{hi: a.hi | ^mh, lo: a.lo | ^ml, is6: true}
}

// withBit returns the address with family-relative bit i set.
func (a Addr) withBit(i int) Addr {
	if !a.is6 {
		return Addr{lo: a.lo | 1<<(31-uint(i))}
	}
	if i < 64 {
		return Addr{hi: a.hi | 1<<(63-uint(i)), lo: a.lo, is6: true}
	}
	return Addr{hi: a.hi, lo: a.lo | 1<<(127-uint(i)), is6: true}
}

// v4mask is the 32-bit network mask for bits in 0..32, widened to uint64.
func v4mask(bits int) uint64 {
	if bits <= 0 {
		return 0
	}
	return (^uint64(0) << (32 - uint(bits))) & 0xffffffff
}

// mask128 is the 128-bit network mask for bits in 0..128.
func mask128(bits int) (hi, lo uint64) {
	switch {
	case bits <= 0:
		return 0, 0
	case bits <= 64:
		return ^uint64(0) << (64 - uint(bits)), 0
	case bits < 128:
		return ^uint64(0), ^uint64(0) << (128 - uint(bits))
	default:
		return ^uint64(0), ^uint64(0)
	}
}

// addrAdd returns a + (delta << shift) within a's family, wrapping like
// fixed-width integer arithmetic. Used by Deaggregate to step sub-prefixes.
func (a Addr) addrAdd(delta uint64, shift uint) Addr {
	if !a.is6 {
		return Addr{lo: uint64(uint32(a.lo) + uint32(delta<<shift))}
	}
	var dh, dl uint64
	switch {
	case shift >= 128:
	case shift >= 64:
		dh = delta << (shift - 64)
	default:
		dl = delta << shift
		if shift > 0 {
			dh = delta >> (64 - shift)
		}
	}
	lo := a.lo + dl
	hi := a.hi + dh
	if lo < a.lo {
		hi++
	}
	return Addr{hi: hi, lo: lo, is6: true}
}

// text is what the parsers read: Parse and ParseAddr hand them a string,
// ParseBytes a byte slice, and one generic body serves both, so decoding a
// prefix out of a wire buffer copies nothing unless it fails.
type text interface{ ~string | ~[]byte }

// parseErr classifies a parse failure. The parsers return it instead of
// an error so that only the exported wrappers, on the failure path, copy
// the text into a message.
type parseErr uint8

const (
	parseOK parseErr = iota
	errNoSlash
	errAddr4
	errAddr6
	errLength
	errHostBits
)

// addrError is the error for a failed address parse of s.
func addrError(e parseErr, s string) error {
	if e == errAddr6 {
		return fmt.Errorf("prefix: invalid IPv6 address %q", s)
	}
	return fmt.Errorf("prefix: invalid IPv4 address %q", s)
}

// prefixError is the error for a failed prefix parse of s.
func prefixError(e parseErr, s string) error {
	switch e {
	case errNoSlash:
		return fmt.Errorf("prefix: missing '/' in %q", s)
	case errAddr4, errAddr6:
		return addrError(e, s[:strings.IndexByte(s, '/')])
	case errLength:
		return fmt.Errorf("prefix: invalid length in %q", s)
	}
	return fmt.Errorf("prefix: host bits set in %q", s)
}

func indexByte[T text](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// indexGap returns the index of the first "::" in s, or -1.
func indexGap[T text](s T) int {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == ':' && s[i+1] == ':' {
			return i
		}
	}
	return -1
}

// parseDec parses a decimal of one or more digits no greater than max.
func parseDec[T text](s T, max int) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v > max {
			return 0, false
		}
	}
	return v, true
}

// parseHex16 parses one to four hex digits.
func parseHex16[T text](s T) (uint16, bool) {
	if len(s) == 0 || len(s) > 4 {
		return 0, false
	}
	var v uint16
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint16(c)
	}
	return v, true
}

// ParseAddr parses a textual IP address: dotted-quad IPv4, or RFC 4291
// IPv6 (hex groups, at most one "::" compression, optional embedded
// dotted-quad tail). The family of the text determines the family of the
// result; ::ffff:a.b.c.d stays IPv6 (see the package comment).
func ParseAddr(s string) (Addr, error) {
	a, e := parseAddr(s)
	if e != parseOK {
		return Addr{}, addrError(e, s)
	}
	return a, nil
}

func parseAddr[T text](s T) (Addr, parseErr) {
	if indexByte(s, ':') >= 0 {
		a, ok := parseAddr6(s)
		if !ok {
			return Addr{}, errAddr6
		}
		return a, parseOK
	}
	v, ok := parseAddr4(s)
	if !ok {
		return Addr{}, errAddr4
	}
	return AddrFrom4(v), parseOK
}

func parseAddr4[T text](s T) (uint32, bool) {
	var v uint32
	rest := s
	for i := 0; i < 4; i++ {
		tok := rest
		if i < 3 {
			dot := indexByte(rest, '.')
			if dot < 0 {
				return 0, false
			}
			tok, rest = rest[:dot], rest[dot+1:]
		}
		// Reject leading zeros: inet_aton-style parsers read "010" as
		// octal 8, so accepting it as decimal 10 would guard the wrong
		// owned space on such a config. net/netip rejects these too.
		if len(tok) > 1 && tok[0] == '0' {
			return 0, false
		}
		octet, ok := parseDec(tok, 255)
		if !ok {
			return 0, false
		}
		v = v<<8 | uint32(octet)
	}
	return v, true
}

// groups parses the colon-separated 16-bit groups of one side of an IPv6
// address's "::" into out, returning how many it wrote. A dotted-quad
// last group, allowed when v4Tail is set, counts as two. More than eight
// groups is an error: no valid address has them.
func groups[T text](part T, v4Tail bool, out *[8]uint16) (int, bool) {
	if len(part) == 0 {
		return 0, true
	}
	n := 0
	for {
		tok, last := part, true
		if colon := indexByte(part, ':'); colon >= 0 {
			tok, part, last = part[:colon], part[colon+1:], false
		}
		if len(tok) == 0 {
			return 0, false
		}
		if v4Tail && last && indexByte(tok, '.') >= 0 {
			v4, ok := parseAddr4(tok)
			if !ok || n+2 > len(out) {
				return 0, false
			}
			out[n], out[n+1] = uint16(v4>>16), uint16(v4)
			n += 2
		} else {
			w, ok := parseHex16(tok)
			if !ok || n+1 > len(out) {
				return 0, false
			}
			out[n] = w
			n++
		}
		if last {
			return n, true
		}
	}
}

func parseAddr6[T text](s T) (Addr, bool) {
	if len(s) == 0 {
		return Addr{}, false
	}
	// Split around at most one "::".
	head, tail := s, s[:0]
	gap := indexGap(s)
	if gap >= 0 {
		head, tail = s[:gap], s[gap+2:]
		if indexGap(tail) >= 0 {
			return Addr{}, false
		}
	}
	var words, tw [8]uint16
	nh, ok := groups(head, gap < 0, &words) // a v4 tail in head is only valid with no "::" after it
	if !ok {
		return Addr{}, false
	}
	if gap < 0 {
		if nh != 8 {
			return Addr{}, false
		}
	} else {
		nt, ok := groups(tail, true, &tw)
		// "::" must stand for at least one zero group.
		if !ok || nh+nt >= 8 {
			return Addr{}, false
		}
		copy(words[8-nt:], tw[:nt])
	}
	var hi, lo uint64
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(words[i])
		lo = lo<<16 | uint64(words[4+i])
	}
	return AddrFrom16(hi, lo), true
}

// MustParseAddr is ParseAddr that panics on error; for tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the canonical text form: dotted-quad for v4, RFC 5952 for
// v6 (lowercase hex, longest run of two or more zero groups compressed,
// leftmost run on ties).
func (a Addr) String() string {
	var b [41]byte
	return string(a.AppendText(b[:0]))
}

// AppendText appends the canonical text form (see String) to dst and
// returns the extended slice. It never allocates when dst has capacity,
// which keeps hot-path encoders (the eventlog codec) allocation-free.
func (a Addr) AppendText(dst []byte) []byte {
	if !a.is6 {
		v := uint32(a.lo)
		dst = strconv.AppendUint(dst, uint64(v>>24), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(v>>16&0xff), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(v>>8&0xff), 10)
		dst = append(dst, '.')
		return strconv.AppendUint(dst, uint64(v&0xff), 10)
	}
	var words [8]uint16
	for i := 0; i < 4; i++ {
		words[i] = uint16(a.hi >> (48 - 16*uint(i)))
		words[4+i] = uint16(a.lo >> (48 - 16*uint(i)))
	}
	// Longest run of >= 2 zero groups, leftmost wins ties.
	zStart, zLen := -1, 0
	for i := 0; i < 8; {
		if words[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && words[j] == 0 {
			j++
		}
		if j-i >= 2 && j-i > zLen {
			zStart, zLen = i, j-i
		}
		i = j
	}
	start := len(dst)
	for i := 0; i < 8; i++ {
		if i == zStart {
			dst = append(dst, ':', ':')
			i += zLen - 1
			continue
		}
		if len(dst) > start && dst[len(dst)-1] != ':' {
			dst = append(dst, ':')
		}
		dst = strconv.AppendUint(dst, uint64(words[i]), 16)
	}
	if len(dst) == start {
		dst = append(dst, ':', ':')
	}
	return dst
}

// Prefix is a CIDR prefix of either family. The zero value is 0.0.0.0/0
// (the IPv4 default route), which is a valid prefix. Prefix lengths are
// family-relative (0..32 for v4, 0..128 for v6).
type Prefix struct {
	addr Addr
	bits uint8
}

// New returns the prefix addr/bits with host bits zeroed. It panics if
// bits exceeds the address family's bound so that an impossible prefix
// cannot circulate silently.
func New(addr Addr, bits int) Prefix {
	if bits < 0 || bits > addr.MaxBits() {
		panic(fmt.Sprintf("prefix: invalid length %d for %s", bits, addr))
	}
	return Prefix{addr: addr.mask(bits), bits: uint8(bits)}
}

// Parse parses "addr/len" CIDR notation of either family. Host bits set
// beyond the mask are an error (BGP NLRI never carries them).
func Parse(s string) (Prefix, error) {
	p, e := parsePrefix(s)
	if e != parseOK {
		return Prefix{}, prefixError(e, s)
	}
	return p, nil
}

// ParseBytes is Parse on a byte slice, for decoders reading a prefix out
// of a wire buffer: it accepts exactly what Parse accepts and copies the
// text only into an error.
func ParseBytes(b []byte) (Prefix, error) {
	p, e := parsePrefix(b)
	if e != parseOK {
		return Prefix{}, prefixError(e, string(b))
	}
	return p, nil
}

func parsePrefix[T text](s T) (Prefix, parseErr) {
	slash := indexByte(s, '/')
	if slash < 0 {
		return Prefix{}, errNoSlash
	}
	addr, e := parseAddr(s[:slash])
	if e != parseOK {
		return Prefix{}, e
	}
	lenTok := s[slash+1:]
	// Signs are not digits; leading zeros ("/08") are rejected so every
	// valid prefix has exactly one textual form.
	if len(lenTok) > 1 && lenTok[0] == '0' {
		return Prefix{}, errLength
	}
	bits, ok := parseDec(lenTok, addr.MaxBits())
	if !ok {
		return Prefix{}, errLength
	}
	if addr != addr.mask(bits) {
		return Prefix{}, errHostBits
	}
	return Prefix{addr: addr, bits: uint8(bits)}, parseOK
}

// MustParse is Parse that panics on error; for tests and table literals.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length (family-relative).
func (p Prefix) Bits() int { return int(p.bits) }

// MaxBits returns the family's prefix-length bound: 32 or 128.
func (p Prefix) MaxBits() int { return p.addr.MaxBits() }

// Is4 reports whether the prefix is IPv4.
func (p Prefix) Is4() bool { return !p.addr.is6 }

// Is6 reports whether the prefix is IPv6.
func (p Prefix) Is6() bool { return p.addr.is6 }

// String returns CIDR notation.
func (p Prefix) String() string {
	var b [45]byte
	return string(p.AppendText(b[:0]))
}

// AppendText appends CIDR notation to dst (see Addr.AppendText).
func (p Prefix) AppendText(dst []byte) []byte {
	dst = p.addr.AppendText(dst)
	dst = append(dst, '/')
	return strconv.AppendUint(dst, uint64(p.bits), 10)
}

// Contains reports whether p contains (or equals) q: same family, q's
// network falls inside p, and q is at least as specific.
func (p Prefix) Contains(q Prefix) bool {
	return p.addr.is6 == q.addr.is6 && p.bits <= q.bits && q.addr.mask(int(p.bits)) == p.addr
}

// ContainsAddr reports whether the address falls inside p (families must
// match).
func (p Prefix) ContainsAddr(a Addr) bool {
	return p.addr.is6 == a.is6 && a.mask(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address. Prefixes of
// different families never overlap.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q) || q.Contains(p)
}

// Last returns the highest address inside the prefix.
func (p Prefix) Last() Addr {
	return p.addr.lastIn(int(p.bits))
}

// Split returns the two halves of p, each one bit more specific.
// It panics on a full-length prefix (/32 or /128), which cannot be split.
func (p Prefix) Split() (lo, hi Prefix) {
	if int(p.bits) >= p.MaxBits() {
		panic(fmt.Sprintf("prefix: cannot split a /%d", p.bits))
	}
	nb := p.bits + 1
	lo = Prefix{addr: p.addr, bits: nb}
	hi = Prefix{addr: p.addr.withBit(int(nb) - 1), bits: nb}
	return lo, hi
}

// Parent returns the prefix one bit less specific that contains p.
// It panics on a /0.
func (p Prefix) Parent() Prefix {
	if p.bits == 0 {
		panic("prefix: /0 has no parent")
	}
	return New(p.addr, int(p.bits)-1)
}

// Deaggregate returns the 2^(bits-p.Bits()) sub-prefixes of p at the given
// length, in address order. This is the mitigation primitive of ARTEMIS §2:
// a hijacked /23 de-aggregates into its two /24s (a v6 /47 into its two
// /48s), which are more specific than the attacker's announcement and
// therefore preferred everywhere. If bits <= p.Bits() the prefix itself is
// returned. Requesting more than 2^16 sub-prefixes is an error: no operator
// floods the table like that, and refusing protects callers from typos
// (e.g. de-aggregating a /8 to /32s).
func (p Prefix) Deaggregate(bits int) ([]Prefix, error) {
	if bits < 0 || bits > p.MaxBits() {
		return nil, fmt.Errorf("prefix: invalid target length %d", bits)
	}
	if bits <= int(p.bits) {
		return []Prefix{p}, nil
	}
	n := bits - int(p.bits)
	if n > 16 {
		return nil, fmt.Errorf("prefix: refusing to de-aggregate %s into 2^%d /%ds", p, n, bits)
	}
	count := 1 << uint(n)
	shift := uint(p.MaxBits() - bits)
	out := make([]Prefix, count)
	for i := 0; i < count; i++ {
		out[i] = Prefix{addr: p.addr.addrAdd(uint64(i), shift), bits: uint8(bits)}
	}
	return out, nil
}

// Compare orders prefixes: v4 before v6, then by network address, then by
// length (less specific first). It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	if c := p.addr.Compare(q.addr); c != 0 {
		return c
	}
	switch {
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

// bit returns the i-th most significant bit (0-indexed, family-relative)
// of the network address; used by the trie.
func (p Prefix) bit(i int) int { return p.addr.bit(i) }

// Identity returns the prefix's full dual-stack identity as three words:
// the 128 address bits plus the family tag packed beside the length. Two
// prefixes are equal iff their identities are equal, so hashing consumers
// (the pipeline's shard router, the ingest dedup fingerprint) fold exactly
// these words — one audited packing rule instead of per-caller copies.
func (p Prefix) Identity() (hi, lo, meta uint64) {
	fam := uint64(0)
	if p.addr.is6 {
		fam = 1
	}
	return p.addr.hi, p.addr.lo, fam<<8 | uint64(p.bits)
}

// FoldIdentity folds p's Identity into an FNV-1a style hash state h
// (xor-then-multiply with the 64-bit FNV prime, one step per identity
// word). The pipeline's shard router and the ingest dedup fingerprint
// both fold prefixes through here, so the fold order and constant live in
// one place alongside the packing rule they depend on.
func FoldIdentity(h uint64, p Prefix) uint64 {
	const prime = 1099511628211
	hi, lo, meta := p.Identity()
	h = (h ^ hi) * prime
	h = (h ^ lo) * prime
	h = (h ^ meta) * prime
	return h
}

// AppendBytes appends the prefix's network address truncated to
// (Bits()+7)/8 bytes in network order — the NLRI encoding shared by BGP
// UPDATE (RFC 4271 §4.3, RFC 4760) and MRT RIB entries.
func (p Prefix) AppendBytes(dst []byte) []byte {
	n := (int(p.bits) + 7) / 8
	if !p.addr.is6 {
		for i := 0; i < n; i++ {
			dst = append(dst, byte(p.addr.lo>>(24-8*uint(i))))
		}
		return dst
	}
	b := p.addr.As16()
	return append(dst, b[:n]...)
}

// FromBytes reconstructs a prefix from its truncated network-order byte
// form (the inverse of AppendBytes) in the given family. Trailing bits set
// beyond the prefix length are an error, as in BGP NLRI validation.
func FromBytes(b []byte, bits int, is6 bool) (Prefix, error) {
	max := 32
	if is6 {
		max = 128
	}
	if bits < 0 || bits > max {
		return Prefix{}, fmt.Errorf("prefix: invalid length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < n {
		return Prefix{}, fmt.Errorf("prefix: %d bytes for a /%d", len(b), bits)
	}
	var addr Addr
	if !is6 {
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(b[i]) << (24 - 8*uint(i))
		}
		addr = Addr{lo: v}
	} else {
		var hi, lo uint64
		for i := 0; i < n && i < 8; i++ {
			hi |= uint64(b[i]) << (56 - 8*uint(i))
		}
		for i := 8; i < n; i++ {
			lo |= uint64(b[i]) << (56 - 8*uint(i-8))
		}
		addr = Addr{hi: hi, lo: lo, is6: true}
	}
	if addr != addr.mask(bits) {
		return Prefix{}, fmt.Errorf("prefix: trailing bits set in /%d", bits)
	}
	return Prefix{addr: addr, bits: uint8(bits)}, nil
}
