package rib

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/route"
)

func announce(p string, vp bgp.ASN, path ...bgp.ASN) feedtypes.Event {
	return feedtypes.Event{
		Kind:         feedtypes.Announce,
		Prefix:       prefix.MustParse(p),
		VantagePoint: vp,
		Path:         path,
	}
}

func withdraw(p string, vp bgp.ASN) feedtypes.Event {
	return feedtypes.Event{Kind: feedtypes.Withdraw, Prefix: prefix.MustParse(p), VantagePoint: vp}
}

func TestTableIndices(t *testing.T) {
	tb := New()
	tb.Apply([]feedtypes.Event{
		announce("10.0.0.0/24", 64500, 64500, 100, 666),
		announce("10.0.0.0/24", 64501, 200, 666), // route server, shorter path wins
		announce("10.1.0.0/16", 64500, 64500, 777),
		announce("2001:db8::/32", 64501, 300, 888),
	})
	s := tb.Snapshot()
	if s.PrefixesV4 != 2 || s.PrefixesV6 != 1 || s.Routes != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.AnnouncesV4 != 3 || s.AnnouncesV6 != 1 || s.WithdrawsV4 != 0 {
		t.Fatalf("movement = %+v", s)
	}
	if s.MasksV4[24] != 1 || s.MasksV4[16] != 1 || s.MasksV6[32] != 1 {
		t.Fatalf("masks = v4[24]=%d v4[16]=%d v6[32]=%d", s.MasksV4[24], s.MasksV4[16], s.MasksV6[32])
	}
	// Best for 10.0.0.0/24 is the route-server path (length 2 < 3).
	res, ok := tb.Lookup(prefix.MustParse("10.0.0.1/32"))
	if !ok || res.Matched != prefix.MustParse("10.0.0.0/24") || res.VantagePoint != 64501 {
		t.Fatalf("lookup = %+v ok=%v", res, ok)
	}
	if res.Origin != 666 || res.Candidates != 2 {
		t.Fatalf("lookup detail = %+v", res)
	}
	if v4, v6 := tb.OriginCounts(666); v4 != 1 || v6 != 0 {
		t.Fatalf("origin 666 counts = %d,%d", v4, v6)
	}
	if v4, v6 := tb.OriginCounts(888); v4 != 0 || v6 != 1 {
		t.Fatalf("origin 888 counts = %d,%d", v4, v6)
	}

	// Withdrawing the winning candidate falls back to the other; the origin
	// index follows the best route.
	tb.Apply([]feedtypes.Event{withdraw("10.0.0.0/24", 64501)})
	res, ok = tb.Lookup(prefix.MustParse("10.0.0.0/24"))
	if !ok || res.VantagePoint != 64500 || res.Candidates != 1 {
		t.Fatalf("after withdraw: %+v ok=%v", res, ok)
	}
	tb.Apply([]feedtypes.Event{withdraw("10.0.0.0/24", 64500)})
	if _, ok := tb.Lookup(prefix.MustParse("10.0.0.0/24")); ok {
		t.Fatal("prefix should be gone")
	}
	s = tb.Snapshot()
	if s.PrefixesV4 != 1 || s.Routes != 2 || s.WithdrawsV4 != 2 || s.MasksV4[24] != 0 {
		t.Fatalf("after withdraws: %+v", s)
	}
	if v4, _ := tb.OriginCounts(666); v4 != 0 {
		t.Fatalf("origin 666 still counted: %d", v4)
	}
}

func TestApplyCopiesPooledPaths(t *testing.T) {
	tb := New()
	path := []bgp.ASN{64500, 100, 666}
	tb.Apply([]feedtypes.Event{announce("10.0.0.0/24", 64500, path...)})
	path[2] = 999 // the pool reuses event storage after delivery
	r, ok := tb.Resolve(prefix.MustParseAddr("10.0.0.1"))
	if !ok || r.Origin(0) != 666 {
		t.Fatalf("retained path aliases pooled storage: %v", r)
	}
}

func TestSynthLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := SynthConfig{V4: 400, V6: 100, Peers: 4, RoutesPerPrefix: 2, Seed: 7}
	if err := WriteSynth(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	tb := New()
	st, err := Load(bytes.NewReader(buf.Bytes()), tb)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peers != 4 || st.Entries != 500 || st.Routes != 1000 || st.Skipped != 0 {
		t.Fatalf("load stats = %+v", st)
	}
	if st.V4Routes != 800 || st.V6Routes != 200 {
		t.Fatalf("family split = %+v", st)
	}
	s := tb.Snapshot()
	if s.PrefixesV4 != 400 || s.PrefixesV6 != 100 || s.Routes != 1000 {
		t.Fatalf("table after load = %+v", s)
	}
	// Bootstrap is not movement.
	if s.AnnouncesV4 != 0 || s.AnnouncesV6 != 0 {
		t.Fatalf("bootstrap counted as movement: %+v", s)
	}
	// Determinism: the same config produces the same bytes.
	var buf2 bytes.Buffer
	if err := WriteSynth(&buf2, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("synthetic snapshot is not deterministic")
	}
}

func TestLoadRequiresPeerIndexTable(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	err := w.Write(&mrt.RIBEntry{
		Timestamp: synthEpoch,
		Prefix:    prefix.MustParse("10.0.0.0/24"),
		Routes: []mrt.RIBPeerRoute{{PeerIndex: 0, Originated: synthEpoch, Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{Value: bgp.OriginIGP},
			bgp.NewASPath([]bgp.ASN{100, 666}),
			&bgp.NextHopAttr{Addr: prefix.MustParseAddr("192.0.2.1")},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(buf.Bytes()), New())
	if err == nil || !strings.Contains(err.Error(), "PEER_INDEX_TABLE") {
		t.Fatalf("err = %v, want RIB-before-peer-index error", err)
	}
}

func TestStatsWriteProm(t *testing.T) {
	tb := New()
	tb.Apply([]feedtypes.Event{announce("10.0.0.0/24", 64500, 64500, 666)})
	var b strings.Builder
	tb.Snapshot().WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`artemis_rib_prefixes{family="4"} 1`,
		`artemis_rib_routes 1`,
		`artemis_rib_moves_total{family="4",kind="announce"} 1`,
		`artemis_rib_mask_prefixes{family="4",mask="24"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `mask="23"`) {
		t.Fatal("zero mask buckets should be omitted")
	}
}

func TestASNames(t *testing.T) {
	n, err := ParseASNames([]byte(`# asn,name,locale
64500,"EXAMPLE-NET Example, Inc",US
AS64501,OTHER-NET,DE
64502,NO-LOCALE
`))
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 3 {
		t.Fatalf("Len = %d", n.Len())
	}
	if v, ok := n.Lookup(64500); !ok || v.Name != "EXAMPLE-NET Example, Inc" || v.Locale != "US" {
		t.Fatalf("64500 = %+v ok=%v", v, ok)
	}
	if v, ok := n.Lookup(64501); !ok || v.Name != "OTHER-NET" || v.Locale != "DE" {
		t.Fatalf("64501 = %+v ok=%v", v, ok)
	}
	if v, ok := n.Lookup(64502); !ok || v.Locale != "" {
		t.Fatalf("64502 = %+v ok=%v", v, ok)
	}
	if _, ok := n.Lookup(1); ok {
		t.Fatal("unknown ASN resolved")
	}
	var nilNames *ASNames
	if _, ok := nilNames.Lookup(1); ok || nilNames.Len() != 0 {
		t.Fatal("nil ASNames not inert")
	}
	if _, err := ParseASNames([]byte("notanasn,X,Y\n")); err == nil {
		t.Fatal("bad ASN accepted")
	}
}

// checkOriginIndex compares the origin index with a from-scratch count
// over every best route: OriginCounts for every origin either one knows,
// Snapshot's Origins, and the index itself.
func checkOriginIndex(t *testing.T, stage string, tb *Table) {
	t.Helper()
	want := make(map[bgp.ASN]originCount)
	tb.rt.WalkBest(func(r *route.Route) bool {
		oc := want[r.Origin(0)]
		oc[famIdx(r.Prefix)]++
		want[r.Origin(0)] = oc
		return true
	})
	if len(want) < 100 {
		t.Fatalf("%s: only %d origins; the table is too small to check", stage, len(want))
	}
	for asn, oc := range want {
		if v4, v6 := tb.OriginCounts(asn); v4 != oc[0] || v6 != oc[1] {
			t.Fatalf("%s: OriginCounts(%d) = %d, %d; the best routes hold %d, %d", stage, asn, v4, v6, oc[0], oc[1])
		}
	}
	for asn := range tb.origins {
		if _, ok := want[asn]; !ok {
			v4, v6 := tb.OriginCounts(asn)
			t.Fatalf("%s: OriginCounts(%d) = %d, %d; no best route has that origin", stage, asn, v4, v6)
		}
	}
	if got := tb.Snapshot().Origins; got != len(want) {
		t.Fatalf("%s: Snapshot().Origins = %d, the best routes have %d", stage, got, len(want))
	}
}

// TestOriginIndexMatchesWalk holds the origin index, which a load folds
// in once at its end and Apply keeps per event, to a count over the best
// routes: after a load into an empty table, after a second load into the
// full one (same prefixes, new routes, so best routes are replaced), and
// through live announce and withdraw churn.
func TestOriginIndexMatchesWalk(t *testing.T) {
	tb := New()
	for i, cfg := range []SynthConfig{
		{V4: 3000, V6: 600, Peers: 6, RoutesPerPrefix: 2, Seed: 1},
		{V4: 3000, V6: 600, Peers: 6, RoutesPerPrefix: 3, Seed: 2},
	} {
		var buf bytes.Buffer
		if err := WriteSynth(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf, tb); err != nil {
			t.Fatal(err)
		}
		checkOriginIndex(t, fmt.Sprintf("load %d", i+1), tb)
	}

	var resident []prefix.Prefix
	tb.rt.WalkBest(func(r *route.Route) bool { resident = append(resident, r.Prefix); return true })
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		evs := make([]feedtypes.Event, 0, 64)
		for range 64 {
			p, vp := resident[rng.Intn(len(resident))], bgp.ASN(64500+rng.Intn(8))
			if rng.Intn(2) == 0 {
				evs = append(evs, feedtypes.Event{Kind: feedtypes.Withdraw, Prefix: p, VantagePoint: vp})
				continue
			}
			path := []bgp.ASN{vp, bgp.ASN(1000 + rng.Intn(200))}
			evs = append(evs, feedtypes.Event{Kind: feedtypes.Announce, Prefix: p, VantagePoint: vp, Path: path[:1+rng.Intn(2)]})
		}
		tb.Apply(evs)
		if round%20 == 19 {
			checkOriginIndex(t, fmt.Sprintf("churn round %d", round), tb)
		}
	}
}
