package rib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/prefix"
	"artemis/internal/route"
	"artemis/internal/topo"
)

// The reference below is the bootstrap as it was before the streaming
// decoder: each RIB entry decoded whole, each route's attribute block
// wrapped in a synthetic BGP UPDATE and parsed by bgp.ParseMessage, and
// the path flattened by Update.ASPath. FuzzRIBLoad holds Load and
// mrt.Reader.Next to it.

// refReader is the reference MRT reader. Records other than RIB entries
// are handed, re-framed, to mrt.Reader, whose decoders for them the
// streaming change did not touch.
type refReader struct{ r io.Reader }

const refMaxRecordLen = 1 << 20

func (r *refReader) Next() (mrt.Record, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("mrt: truncated header: %w", err)
		}
		return nil, err
	}
	ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[:4])), 0).UTC()
	typ := binary.BigEndian.Uint16(hdr[4:6])
	sub := binary.BigEndian.Uint16(hdr[6:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > refMaxRecordLen {
		return nil, fmt.Errorf("mrt: record length %d exceeds cap", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, fmt.Errorf("mrt: truncated body: %w", err)
	}
	switch {
	case typ == mrt.TypeTableDumpV2 && sub == mrt.SubtypeRIBIPv4Unicast:
		return refParseRIBEntry(ts, body, false)
	case typ == mrt.TypeTableDumpV2 && sub == mrt.SubtypeRIBIPv6Unicast:
		return refParseRIBEntry(ts, body, true)
	}
	return mrt.NewReader(bytes.NewReader(append(hdr[:], body...))).Next()
}

func refParseRIBEntry(ts time.Time, b []byte, is6 bool) (*mrt.RIBEntry, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("mrt: short RIB entry")
	}
	r := &mrt.RIBEntry{Timestamp: ts, Sequence: binary.BigEndian.Uint32(b[:4])}
	bits := int(b[4])
	max := 32
	if is6 {
		max = 128
	}
	if bits > max {
		return nil, fmt.Errorf("mrt: RIB prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 5+n+2 {
		return nil, fmt.Errorf("mrt: truncated RIB prefix")
	}
	p, err := prefix.FromBytes(b[5:5+n], bits, is6)
	if err != nil {
		return nil, fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	r.Prefix = p
	b = b[5+n:]
	count := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("mrt: truncated RIB route")
		}
		rt := mrt.RIBPeerRoute{
			PeerIndex:  binary.BigEndian.Uint16(b[:2]),
			Originated: time.Unix(int64(binary.BigEndian.Uint32(b[2:6])), 0).UTC(),
		}
		alen := int(binary.BigEndian.Uint16(b[6:8]))
		if len(b) < 8+alen {
			return nil, fmt.Errorf("mrt: truncated RIB attributes")
		}
		attrs, err := refParseAttrsViaUpdate(b[8 : 8+alen])
		if err != nil {
			return nil, err
		}
		rt.Attrs = attrs
		r.Routes = append(r.Routes, rt)
		b = b[8+alen:]
	}
	return r, nil
}

func refParseAttrsViaUpdate(attrBytes []byte) ([]bgp.PathAttr, error) {
	body := make([]byte, 0, 4+len(attrBytes))
	body = binary.BigEndian.AppendUint16(body, 0)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrBytes)))
	body = append(body, attrBytes...)
	full := make([]byte, bgp.HeaderLen, bgp.HeaderLen+len(body))
	for i := 0; i < 16; i++ {
		full[i] = 0xff
	}
	full = append(full, body...)
	binary.BigEndian.PutUint16(full[16:18], uint16(len(full)))
	full[18] = byte(bgp.MsgUpdate)
	m, err := bgp.ParseMessage(full, bgp.DefaultOptions)
	if err != nil {
		return nil, fmt.Errorf("mrt: RIB attributes: %w", err)
	}
	return m.(*bgp.Update).Attrs, nil
}

// refLoad is the reference bootstrap over refReader.
func refLoad(r io.Reader, t *Table) (LoadStats, error) {
	start := time.Now()
	mr := &refReader{r: r}
	var peers mrt.PeerResolver
	var st LoadStats
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		peers.Observe(rec)
		re, ok := rec.(*mrt.RIBEntry)
		if !ok {
			continue
		}
		st.Entries++
		for i := range re.Routes {
			rt := &re.Routes[i]
			peer, err := peers.Peer(rt.PeerIndex)
			if err != nil {
				return st, fmt.Errorf("rib: entry %s: %w", re.Prefix, err)
			}
			u := bgp.Update{Attrs: rt.Attrs}
			path, ok := u.ASPath()
			if !ok || len(path) == 0 {
				st.Skipped++
				continue
			}
			if peer.AS != 0 {
				t.mu.Lock()
				old, best, changed := t.rt.Update(&route.Route{Prefix: re.Prefix, Path: path, From: peer.AS, Rel: topo.Peer})
				t.noteBestChange(re.Prefix, old, best, changed, nil)
				t.mu.Unlock()
			}
			st.Routes++
			if re.Prefix.Is6() {
				st.V6Routes++
			} else {
				st.V4Routes++
			}
		}
	}
	st.Peers = peers.Peers()
	st.Elapsed = time.Since(start)
	return st, nil
}

func bestRoutes(t *Table) []route.Route {
	var out []route.Route
	t.rt.WalkBest(func(r *route.Route) bool {
		out = append(out, *r)
		return true
	})
	return out
}

// FuzzRIBLoad checks the streaming bootstrap against the reference: the
// same error or none, the same LoadStats, table indices and best route
// for every prefix; and mrt.Reader.Next yields records DeepEqual to the
// reference reader's.
func FuzzRIBLoad(f *testing.F) {
	for _, seed := range ribFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := New(), New()
		gst, gerr := Load(bytes.NewReader(data), got)
		wst, werr := refLoad(bytes.NewReader(data), want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Load error %v, reference error %v", gerr, werr)
		}
		gst.Elapsed, wst.Elapsed = 0, 0
		if gst != wst {
			t.Fatalf("LoadStats %+v, reference %+v", gst, wst)
		}
		if g, w := got.Snapshot(), want.Snapshot(); g != w {
			t.Fatalf("table stats %+v, reference %+v", g, w)
		}
		if !reflect.DeepEqual(got.origins, want.origins) {
			t.Fatalf("origin index %v, reference %v", got.origins, want.origins)
		}
		gb, wb := bestRoutes(got), bestRoutes(want)
		if !slices.EqualFunc(gb, wb, func(a, b route.Route) bool {
			return a.Prefix == b.Prefix && a.From == b.From && a.Rel == b.Rel && slices.Equal(a.Path, b.Path)
		}) {
			t.Fatalf("best routes %v, reference %v", gb, wb)
		}

		mr, rr := mrt.NewReader(bytes.NewReader(data)), &refReader{r: bytes.NewReader(data)}
		for i := 0; ; i++ {
			grec, gerr := mr.Next()
			wrec, werr := rr.Next()
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("record %d: Next error %v, reference error %v", i, gerr, werr)
			}
			if gerr != nil {
				if (gerr == io.EOF) != (werr == io.EOF) {
					t.Fatalf("record %d: Next error %v, reference error %v", i, gerr, werr)
				}
				return
			}
			if !reflect.DeepEqual(grec, wrec) {
				t.Fatalf("record %d: Next %#v, reference %#v", i, grec, wrec)
			}
		}
	})
}

// ribFuzzSeeds builds the seed corpus: a synthetic snapshot plus
// hand-made streams for the attribute shapes a real dump carries and the
// ways a record goes wrong.
func ribFuzzSeeds(f *testing.F) [][]byte {
	record := func(typ, sub uint16, body []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(synthEpoch.Unix()))
		b = binary.BigEndian.AppendUint16(b, typ)
		b = binary.BigEndian.AppendUint16(b, sub)
		b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
		return append(b, body...)
	}
	attr := func(fl uint8, code bgp.AttrCode, val []byte) []byte {
		if fl&0x10 != 0 {
			b := binary.BigEndian.AppendUint16([]byte{fl, byte(code)}, uint16(len(val)))
			return append(b, val...)
		}
		return append([]byte{fl, byte(code), byte(len(val))}, val...)
	}
	segment := func(typ uint8, asns ...uint32) []byte {
		b := []byte{typ, byte(len(asns))}
		for _, a := range asns {
			b = binary.BigEndian.AppendUint32(b, a)
		}
		return b
	}
	origin := attr(0x40, bgp.AttrOrigin, []byte{bgp.OriginIGP})
	nextHop := attr(0x40, bgp.AttrNextHop, []byte{192, 0, 2, 1})
	path := func(segs ...[]byte) []byte { return attr(0x40, bgp.AttrASPath, bytes.Join(segs, nil)) }
	// rib encodes one RIB entry; each route is (peer index, attribute block).
	type rt struct {
		peer  uint16
		attrs []byte
	}
	rib := func(p string, routes ...rt) []byte {
		pf := prefix.MustParse(p)
		b := binary.BigEndian.AppendUint32(nil, 7)
		b = append(b, byte(pf.Bits()))
		b = pf.AppendBytes(b)
		b = binary.BigEndian.AppendUint16(b, uint16(len(routes)))
		for _, r := range routes {
			b = binary.BigEndian.AppendUint16(b, r.peer)
			b = binary.BigEndian.AppendUint32(b, uint32(synthEpoch.Unix()))
			b = binary.BigEndian.AppendUint16(b, uint16(len(r.attrs)))
			b = append(b, r.attrs...)
		}
		sub := mrt.SubtypeRIBIPv4Unicast
		if pf.Is6() {
			sub = mrt.SubtypeRIBIPv6Unicast
		}
		return record(mrt.TypeTableDumpV2, sub, b)
	}
	pit, err := mrt.Marshal(&mrt.PeerIndexTable{Timestamp: synthEpoch, CollectorID: prefix.MustParseAddr("198.51.100.1"), Peers: []mrt.Peer{
		{BGPID: prefix.MustParseAddr("198.51.100.2"), IP: prefix.MustParseAddr("198.51.100.2"), AS: 64500},
		{BGPID: prefix.MustParseAddr("198.51.100.3"), IP: prefix.MustParseAddr("2001:db8::3"), AS: 64501},
		{BGPID: prefix.MustParseAddr("198.51.100.4"), IP: prefix.MustParseAddr("198.51.100.4"), AS: 0},
	}})
	if err != nil {
		f.Fatal(err)
	}
	bgp4mp, err := mrt.Marshal(&mrt.BGP4MPMessage{Timestamp: synthEpoch, PeerAS: 64500, LocalAS: 64999,
		PeerIP: prefix.MustParseAddr("198.51.100.2"), LocalIP: prefix.MustParseAddr("198.51.100.1"),
		Message: &bgp.Update{NLRI: []prefix.Prefix{prefix.MustParse("10.9.0.0/16")}, Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{}, bgp.NewASPath([]bgp.ASN{64500, 666}), &bgp.NextHopAttr{Addr: prefix.MustParseAddr("198.51.100.2")},
		}}})
	if err != nil {
		f.Fatal(err)
	}
	stream := func(recs ...[]byte) []byte { return bytes.Join(append([][]byte{pit}, recs...), nil) }
	nh := prefix.MustParseAddr("2001:db8::3").As16()
	v6nh := append([]byte{16}, nh[:]...)
	fullMPReach := append([]byte{0, 2, 1, 16}, nh[:]...)
	fullMPReach = append(fullMPReach, 0, 32, 0x20, 0x01, 0x0d, 0xb8)

	var synth bytes.Buffer
	if err := WriteSynth(&synth, SynthConfig{V4: 30, V6: 10, Peers: 3, RoutesPerPrefix: 2, Seed: 5}); err != nil {
		f.Fatal(err)
	}
	good := stream(
		// AS_SET segment after a sequence, from two peers.
		rib("10.0.0.0/24",
			rt{0, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 64500, 100), segment(bgp.SegSet, 200, 300)), nextHop}, nil)},
			rt{1, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 100, 300)), nextHop}, nil)}),
		// AS4_PATH beside an AS_TRANS path.
		rib("10.1.0.0/16", rt{0, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 64500, 23456)),
			attr(0xc0, bgp.AttrAS4Path, segment(bgp.SegSequence, 64500, 4200000000)), nextHop}, nil)}),
		bgp4mp,
		// The abbreviated MP_REACH_NLRI of RFC 6396 §4.3.4: next hop only.
		rib("2001:db8::/32", rt{1, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 64501, 888)), attr(0x80, bgp.AttrMPReachNLRI, v6nh)}, nil)}),
		// A full-form MP_REACH_NLRI with v6 prefixes, beside an MP_UNREACH_NLRI.
		rib("2001:db8:1::/48", rt{1, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 64501, 889)),
			attr(0x80, bgp.AttrMPReachNLRI, fullMPReach), attr(0x80, bgp.AttrMPUnreachNLRI, []byte{0, 2, 1, 32, 0x20, 0x01, 0x0d, 0xb9})}, nil)}),
		// An extended-length AS_PATH, an empty AS_PATH, a path from a peer with AS 0.
		rib("10.2.0.0/23",
			rt{0, bytes.Join([][]byte{origin, attr(0x50, bgp.AttrASPath, segment(bgp.SegSequence, 64500, 777)), nextHop}, nil)},
			rt{1, bytes.Join([][]byte{origin, path(), nextHop}, nil)},
			rt{2, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 555)), nextHop}, nil)}),
	)
	return [][]byte{
		synth.Bytes(),
		good,
		// Truncated mid-record.
		good[:len(good)-3],
		// A duplicate attribute.
		stream(rib("10.3.0.0/24", rt{0, bytes.Join([][]byte{origin, origin, path(segment(bgp.SegSequence, 1)), nextHop}, nil)})),
		// A RIB entry that announces two routes and carries one.
		func() []byte {
			b := stream(rib("10.4.0.0/24", rt{0, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 1)), nextHop}, nil)}))
			off := len(pit) + 12 + 4 + 1 + 3 // record header, sequence, length, prefix
			binary.BigEndian.PutUint16(b[off:], 2)
			return b
		}(),
		// A full-form MP_REACH_NLRI with v6 prefixes and no ORIGIN.
		stream(rib("2001:db8::/32", rt{1, bytes.Join([][]byte{path(segment(bgp.SegSequence, 64501, 888)), attr(0x80, bgp.AttrMPReachNLRI, fullMPReach)}, nil)})),
		// A peer index past the table, and an entry before any table.
		stream(rib("10.5.0.0/24", rt{9, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 1)), nextHop}, nil)})),
		rib("10.6.0.0/24", rt{0, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 1)), nextHop}, nil)}),
		// An attribute block longer than one BGP message holds.
		stream(rib("10.7.0.0/24", rt{0, bytes.Join([][]byte{origin, path(segment(bgp.SegSequence, 1)), nextHop, attr(0xd0, 99, make([]byte, 4100))}, nil)})),
	}
}
