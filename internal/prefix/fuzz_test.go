package prefix

import (
	"strings"
	"testing"
)

// The fuzz wall around the dual-stack parse/format core. Each target is
// run continuously by `make fuzz` (and a short CI smoke job); the checked-
// in corpora under testdata/fuzz/ keep the interesting ::-compression and
// family edge cases regression-tested in every ordinary `go test` run.

// FuzzParseAddr: anything ParseAddr accepts must round-trip through String
// exactly (same address, same family), and String must be canonical (a
// second round trip is a fixed point).
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "10.0.0.1", "192.168.1.200",
		"::", "::1", "1::", "2001:db8::1", "1:2:3:4:5:6:7:8",
		"1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8", "2001:db8:0:0:1:0:0:1",
		"::ffff:10.0.0.1", "64:ff9b::1.2.3.4", "1:2:3:4:5:6:1.2.3.4",
		"fe80::1%eth0", "1:::2", "12345::", "1.2.3.4.5", ":",
		"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if err != nil {
			return
		}
		if a.Is4() == strings.ContainsRune(s, ':') {
			t.Fatalf("ParseAddr(%q): family flag disagrees with text form", s)
		}
		c := a.String()
		a2, err := ParseAddr(c)
		if err != nil {
			t.Fatalf("ParseAddr(%q) ok but String %q does not reparse: %v", s, c, err)
		}
		if a2 != a {
			t.Fatalf("round trip %q -> %q -> %v != %v", s, c, a2, a)
		}
		if c2 := a2.String(); c2 != c {
			t.Fatalf("String not canonical: %q -> %q", c, c2)
		}
	})
}

// FuzzParsePrefix: ParseBytes agrees with Parse on every input, value and
// error alike; anything Parse accepts must have no host bits, a length
// within the family bound, and round-trip through String exactly.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0/0", "10.0.0.0/23", "255.255.255.255/32", "10.0.0.1/23",
		"::/0", "2001:db8::/32", "::1/128", "2001:db8::/129", "2001:db8::1/32",
		"::ffff:a00:0/112", "1:2:3:4:5:6:7:8/128", "2001:db8:0:0:8000::/65",
		"10.0.0.0", "10.0.0.0/x", "/24", "::/", "1.2.3.4.5/8", "010.0.0.0/8",
		"10.0.0.0/08", "1::2::3/64", "1:2:3:4:5:6:7:8:9/128", "::1.2.3.4/128",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		pb, errb := ParseBytes([]byte(s))
		if pb != p || (err == nil) != (errb == nil) || err != nil && err.Error() != errb.Error() {
			t.Fatalf("ParseBytes(%q) = %v, %v; Parse = %v, %v", s, pb, errb, p, err)
		}
		if err != nil {
			return
		}
		if p.Bits() < 0 || p.Bits() > p.MaxBits() {
			t.Fatalf("Parse(%q): length %d out of range for family", s, p.Bits())
		}
		if p.Addr() != p.Addr().mask(p.Bits()) {
			t.Fatalf("Parse(%q): host bits survived", s)
		}
		c := p.String()
		p2, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q) ok but String %q does not reparse: %v", s, c, err)
		}
		if p2 != p {
			t.Fatalf("round trip %q -> %q -> %v != %v", s, c, p2, p)
		}
		if c2 := p2.String(); c2 != c {
			t.Fatalf("String not canonical: %q -> %q", c, c2)
		}
	})
}

// FuzzPrefixString drives the formatter from raw bits instead of text, so
// the ::-compression logic sees address patterns no parser output would:
// every zero-run shape, both word halves, both families, every length.
// It also cross-checks the wire-byte codec on the same prefix.
func FuzzPrefixString(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0), uint8(0), false)
	f.Add(uint64(0x20010db800000000), uint64(1), uint32(0x0a000000), uint8(48), true)
	f.Add(^uint64(0), ^uint64(0), ^uint32(0), uint8(128), true)
	f.Add(uint64(1), uint64(1<<63), uint32(1), uint8(65), true)
	f.Add(uint64(0), uint64(0xffff0a000001), uint32(0), uint8(112), true)
	f.Fuzz(func(t *testing.T, hi, lo uint64, v4 uint32, bits uint8, is6 bool) {
		var p Prefix
		if is6 {
			p = New(AddrFrom16(hi, lo), int(bits)%129)
		} else {
			p = New(AddrFrom4(v4), int(bits)%33)
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("String %q of %#v does not reparse: %v", s, p, err)
		}
		if p2 != p {
			t.Fatalf("round trip %#v -> %q -> %#v", p, s, p2)
		}
		wire := p.AppendBytes(nil)
		if len(wire) != (p.Bits()+7)/8 {
			t.Fatalf("AppendBytes(%s): %d bytes", p, len(wire))
		}
		p3, err := FromBytes(wire, p.Bits(), p.Is6())
		if err != nil || p3 != p {
			t.Fatalf("wire round trip %s -> %x -> %v (%v)", p, wire, p3, err)
		}
	})
}
