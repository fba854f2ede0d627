package rib

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/prefix"
	"artemis/internal/route"
)

// naiveTable is the oracle: a flat map of per-prefix candidate sets with
// linear-scan longest-prefix match — no trie, no incremental indices.
type naiveTable struct {
	cands map[prefix.Prefix]map[bgp.ASN][]bgp.ASN // prefix -> vantage point -> path
}

func newNaive() *naiveTable {
	return &naiveTable{cands: make(map[prefix.Prefix]map[bgp.ASN][]bgp.ASN)}
}

func (n *naiveTable) insert(p prefix.Prefix, vp bgp.ASN, path []bgp.ASN) {
	m := n.cands[p]
	if m == nil {
		m = make(map[bgp.ASN][]bgp.ASN)
		n.cands[p] = m
	}
	m[vp] = append([]bgp.ASN(nil), path...)
}

// best recomputes the selected route for p from scratch.
func (n *naiveTable) best(p prefix.Prefix) *route.Route {
	var b *route.Route
	for vp, path := range n.cands[p] {
		r := &route.Route{Prefix: p, Path: path, From: vp}
		if b == nil || route.Better(r, b) {
			b = r
		}
	}
	return b
}

// resolve is linear-scan LPM over every resident prefix.
func (n *naiveTable) resolve(addr prefix.Addr) *route.Route {
	var matched prefix.Prefix
	found := false
	for p := range n.cands {
		if !p.ContainsAddr(addr) {
			continue
		}
		if !found || p.Bits() > matched.Bits() {
			matched, found = p, true
		}
	}
	if !found {
		return nil
	}
	return n.best(matched)
}

// resolveBestFor is linear-scan LPM for a prefix query.
func (n *naiveTable) resolveBestFor(q prefix.Prefix) *route.Route {
	var matched prefix.Prefix
	found := false
	for p := range n.cands {
		if !p.Contains(q) {
			continue
		}
		if !found || p.Bits() > matched.Bits() {
			matched, found = p, true
		}
	}
	if !found {
		return nil
	}
	return n.best(matched)
}

// TestLoaderOracle loads a randomized mixed-family snapshot through the
// streaming bootstrap and checks Lookup, for host prefixes and for
// prefixes, against a naive linear scan over the same records, for random
// addresses and prefixes.
func TestLoaderOracle(t *testing.T) {
	var buf bytes.Buffer
	cfg := SynthConfig{V4: 1500, V6: 400, Peers: 6, RoutesPerPrefix: 3, Seed: 42}
	if err := WriteSynth(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	tb := New()
	if _, err := Load(bytes.NewReader(data), tb); err != nil {
		t.Fatal(err)
	}

	// Feed the identical records to the oracle.
	oracle := newNaive()
	mr := mrt.NewReader(bytes.NewReader(data))
	var peers mrt.PeerResolver
	var allPrefixes []prefix.Prefix
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		peers.Observe(rec)
		re, ok := rec.(*mrt.RIBEntry)
		if !ok {
			continue
		}
		allPrefixes = append(allPrefixes, re.Prefix)
		for i := range re.Routes {
			peer, err := peers.Peer(re.Routes[i].PeerIndex)
			if err != nil {
				t.Fatal(err)
			}
			u := bgp.Update{Attrs: re.Routes[i].Attrs}
			path, ok := u.ASPath()
			if !ok {
				t.Fatalf("synth route without path for %s", re.Prefix)
			}
			oracle.insert(re.Prefix, peer.AS, path)
		}
	}

	sameRoute := func(got LookupResult, ok bool, want *route.Route) bool {
		if !ok || want == nil {
			return !ok && want == nil
		}
		return got.Matched == want.Prefix && got.VantagePoint == want.From && slices.Equal(got.Path, want.Path) &&
			got.Origin == want.Origin(0) && got.Candidates == len(oracle.cands[want.Prefix])
	}

	rnd := rand.New(rand.NewSource(99))
	queryAddr := func(i int) prefix.Addr {
		p := allPrefixes[rnd.Intn(len(allPrefixes))]
		a := p.Addr()
		if i%3 == 0 {
			// Also probe addresses off the prefix base (inside or outside).
			if p.Is6() {
				hi, lo := a.Uint128()
				a = prefix.AddrFrom16(hi, lo+uint64(rnd.Intn(1<<16)))
			} else {
				a = prefix.AddrFrom4(a.V4() + uint32(rnd.Intn(1<<9)))
			}
		}
		return a
	}
	for i := 0; i < 4000; i++ {
		addr := queryAddr(i)
		want := oracle.resolve(addr)
		q := prefix.New(addr, addr.MaxBits())
		if got, ok := tb.Lookup(q); !sameRoute(got, ok, want) {
			t.Fatalf("Lookup(%s): got %+v, want %v", q, got, want)
		}
	}
	for i := 0; i < 4000; i++ {
		base := allPrefixes[rnd.Intn(len(allPrefixes))]
		bits := base.Bits()
		if d := base.MaxBits() - bits; d > 0 && i%2 == 0 {
			bits += rnd.Intn(d + 1) // a more specific query inside the prefix
		}
		q := prefix.New(base.Addr(), bits)
		want := oracle.resolveBestFor(q)
		if got, ok := tb.Lookup(q); !sameRoute(got, ok, want) {
			t.Fatalf("Lookup(%s): got %+v, want %v", q, got, want)
		}
	}
}
