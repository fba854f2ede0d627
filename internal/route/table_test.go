package route

import (
	"math/rand"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/topo"
)

func TestTableUpdateSelectsBest(t *testing.T) {
	tb := NewTable(42)
	p := "10.0.0.0/23"
	_, best, changed := tb.Update(mk(p, 3, topo.Provider, 3, 9))
	if !changed || best.From != 3 {
		t.Fatalf("first update: best=%v changed=%v", best, changed)
	}
	_, best, changed = tb.Update(mk(p, 1, topo.Customer, 1, 9))
	if !changed || best.From != 1 {
		t.Fatalf("customer route should take over: %v %v", best, changed)
	}
	// A worse route arriving must not change the best.
	_, best, changed = tb.Update(mk(p, 2, topo.Peer, 2, 9))
	if changed || best.From != 1 {
		t.Fatalf("peer route should not displace customer: %v %v", best, changed)
	}
	if len(tb.Candidates(prefix.MustParse(p))) != 3 {
		t.Fatalf("candidates = %d, want 3", len(tb.Candidates(prefix.MustParse(p))))
	}
}

func TestTableReplaceFromSameNeighbor(t *testing.T) {
	tb := NewTable(42)
	p := "10.0.0.0/23"
	tb.Update(mk(p, 1, topo.Customer, 1, 9))
	// Same neighbor re-announces with a longer path: implicit replacement.
	_, best, _ := tb.Update(mk(p, 1, topo.Customer, 1, 5, 9))
	if len(best.Path) != 3 {
		t.Fatalf("replacement not applied: %v", best)
	}
	if got := len(tb.Candidates(prefix.MustParse(p))); got != 1 {
		t.Fatalf("candidates = %d, want 1 (implicit withdraw)", got)
	}
}

func TestTableWithdraw(t *testing.T) {
	tb := NewTable(42)
	p := prefix.MustParse("10.0.0.0/23")
	tb.Update(mk(p.String(), 1, topo.Customer, 1, 9))
	tb.Update(mk(p.String(), 2, topo.Peer, 2, 9))
	old, best, changed := tb.Withdraw(p, 1)
	if !changed || old.From != 1 || best.From != 2 {
		t.Fatalf("withdraw best: old=%v best=%v changed=%v", old, best, changed)
	}
	_, best, changed = tb.Withdraw(p, 2)
	if !changed || best != nil {
		t.Fatalf("last withdraw: best=%v changed=%v", best, changed)
	}
	if tb.Len() != 0 {
		t.Fatalf("table should be empty, Len=%d", tb.Len())
	}
	// Withdrawing absent state is a no-op.
	if _, _, changed := tb.Withdraw(p, 7); changed {
		t.Fatal("withdraw of unknown prefix reported change")
	}
}

func TestTableWithdrawNonBestDoesNotChange(t *testing.T) {
	tb := NewTable(42)
	p := prefix.MustParse("10.0.0.0/23")
	tb.Update(mk(p.String(), 1, topo.Customer, 1, 9))
	tb.Update(mk(p.String(), 2, topo.Peer, 2, 9))
	_, best, changed := tb.Withdraw(p, 2)
	if changed || best.From != 1 {
		t.Fatalf("withdrawing non-best changed selection: %v %v", best, changed)
	}
}

func TestTableOriginateWins(t *testing.T) {
	tb := NewTable(42)
	p := prefix.MustParse("10.0.0.0/23")
	tb.Update(mk(p.String(), 1, topo.Customer, 1, 9))
	_, best, changed := tb.Originate(p)
	if !changed || !best.Local() {
		t.Fatalf("local origination should be best: %v", best)
	}
	if best.Origin(42) != 42 {
		t.Fatalf("origin = %v", best.Origin(42))
	}
	_, best, changed = tb.WithdrawLocal(p)
	if !changed || best.From != 1 {
		t.Fatalf("withdraw local should fall back: %v", best)
	}
}

func TestTableResolveLongestMatch(t *testing.T) {
	tb := NewTable(42)
	tb.Update(mk("10.0.0.0/23", 1, topo.Customer, 1, 9)) // hijacker at 9? no: origin 9
	tb.Update(mk("10.0.0.0/24", 2, topo.Provider, 2, 7)) // more specific via provider
	addr := prefix.MustParseAddr("10.0.0.55")
	origin, ok := tb.ResolveOrigin(addr)
	if !ok || origin != 7 {
		t.Fatalf("ResolveOrigin = %v,%v; longest match must win regardless of preference", origin, ok)
	}
	// Address only covered by the /23.
	origin, ok = tb.ResolveOrigin(prefix.MustParseAddr("10.0.1.55"))
	if !ok || origin != 9 {
		t.Fatalf("ResolveOrigin /23 side = %v,%v", origin, ok)
	}
	if _, ok := tb.ResolveOrigin(prefix.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("uncovered address resolved")
	}
}

func TestTableResolveAfterWithdraw(t *testing.T) {
	tb := NewTable(42)
	tb.Update(mk("10.0.0.0/24", 2, topo.Provider, 2, 7))
	tb.Withdraw(prefix.MustParse("10.0.0.0/24"), 2)
	if _, ok := tb.Resolve(prefix.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("resolve after withdraw should miss")
	}
}

func TestWalkBest(t *testing.T) {
	tb := NewTable(42)
	tb.Update(mk("10.0.0.0/23", 1, topo.Customer, 1, 9))
	tb.Update(mk("192.168.0.0/16", 1, topo.Customer, 1, 9))
	n := 0
	tb.WalkBest(func(r *Route) bool { n++; return true })
	if n != 2 {
		t.Fatalf("WalkBest visited %d", n)
	}
	n = 0
	tb.WalkBest(func(r *Route) bool { n++; return false })
	if n != 1 {
		t.Fatal("WalkBest did not stop early")
	}
}

func TestBestIsStableIdentity(t *testing.T) {
	// reselect must report changed=false when the same route object stays
	// best, so MRAI queues don't fill with no-op updates.
	tb := NewTable(42)
	p := prefix.MustParse("10.0.0.0/23")
	r1 := mk(p.String(), 1, topo.Customer, 1, 9)
	tb.Update(r1)
	_, _, changed := tb.Update(mk(p.String(), 2, topo.Provider, 2, 9))
	if changed {
		t.Fatal("adding worse candidate must not signal change")
	}
	b, _ := tb.Best(p)
	if b != r1 {
		t.Fatal("best route identity changed")
	}
}

func TestDuplicateReannounceNotChanged(t *testing.T) {
	// A content-identical re-announcement from the same neighbor arrives as
	// a fresh *Route; reselect must report changed=false (content equality,
	// not pointer identity) or every duplicate UPDATE re-propagates.
	tb := NewTable(42)
	p := "10.0.0.0/23"
	tb.Update(mk(p, 1, topo.Customer, 1, 5, 9))
	_, best, changed := tb.Update(mk(p, 1, topo.Customer, 1, 5, 9))
	if changed {
		t.Fatalf("duplicate re-announcement reported changed=true (best=%v)", best)
	}
	// An actual content change from the same neighbor must still propagate.
	_, best, changed = tb.Update(mk(p, 1, topo.Customer, 1, 9))
	if !changed || len(best.Path) != 2 {
		t.Fatalf("real replacement suppressed: best=%v changed=%v", best, changed)
	}
}

func TestRouteEqual(t *testing.T) {
	a := mk("10.0.0.0/23", 1, topo.Customer, 1, 9)
	if !a.Equal(mk("10.0.0.0/23", 1, topo.Customer, 1, 9)) {
		t.Fatal("identical content not Equal")
	}
	cases := []*Route{
		mk("10.0.0.0/24", 1, topo.Customer, 1, 9), // prefix differs
		mk("10.0.0.0/23", 2, topo.Customer, 1, 9), // neighbor differs
		mk("10.0.0.0/23", 1, topo.Peer, 1, 9),     // relationship differs
		mk("10.0.0.0/23", 1, topo.Customer, 1, 5, 9),
		nil,
	}
	for i, c := range cases {
		if a.Equal(c) {
			t.Fatalf("case %d: %v should not equal %v", i, a, c)
		}
	}
	var n *Route
	if !n.Equal(nil) || n.Equal(a) {
		t.Fatal("nil Equal semantics wrong")
	}
}

var _ = bgp.ASN(0) // keep import when test bodies change

func TestOriginateWithPath(t *testing.T) {
	tb := NewTable(100)
	p := prefix.MustParse("10.0.0.0/23")
	_, best, changed := tb.OriginateWithPath(p, []bgp.ASN{64500})
	if !changed || best == nil {
		t.Fatal("forged origination did not install")
	}
	if !best.Local() {
		t.Fatal("forged origination must still be a local route")
	}
	if got := best.Origin(100); got != 64500 {
		t.Fatalf("origin = %v, want forged 64500", got)
	}
	// The suffix is cloned: mutating the caller's slice must not reach
	// the installed route.
	suffix := []bgp.ASN{64501, 64502}
	tb.OriginateWithPath(prefix.MustParse("10.2.0.0/23"), suffix)
	suffix[0] = 1
	r, _ := tb.Best(prefix.MustParse("10.2.0.0/23"))
	if r.Path[0] != 64501 {
		t.Fatal("installed path aliases the caller's slice")
	}
	// WithdrawLocal removes it like an honest origination.
	if _, _, changed := tb.WithdrawLocal(p); !changed {
		t.Fatal("withdraw of forged origination did not change best")
	}
}

// TestTableSelectionMatchesRescan drives interleaved Update / Withdraw /
// Originate streams into a table and into a reference that re-runs the
// decision process over every candidate after each step, and requires the
// same best routes, change reports, candidate sets and forwarding.
func TestTableSelectionMatchesRescan(t *testing.T) {
	prefixes := []prefix.Prefix{
		prefix.MustParse("10.0.0.0/22"), prefix.MustParse("10.0.0.0/23"),
		prefix.MustParse("10.0.1.0/24"), prefix.MustParse("2001:db8::/32"),
	}
	rels := []topo.Rel{topo.Customer, topo.Peer, topo.Provider}
	rescan := func(cands map[bgp.ASN]*Route) *Route {
		var best *Route
		for _, r := range cands {
			if best == nil || Better(r, best) {
				best = r
			}
		}
		return best
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(42)
		ref := make(map[prefix.Prefix]map[bgp.ASN]*Route)
		for step := 0; step < 5000; step++ {
			p := prefixes[rng.Intn(len(prefixes))]
			from := bgp.ASN(rng.Intn(7)) // 0 = local
			before := rescan(ref[p])
			var old, best *Route
			var changed bool
			switch k := rng.Intn(10); {
			case k < 3:
				old, best, changed = tb.Withdraw(p, from)
				delete(ref[p], from)
			case from == 0:
				old, best, changed = tb.Originate(p)
				if ref[p] == nil {
					ref[p] = make(map[bgp.ASN]*Route)
				}
				ref[p][0] = &Route{Prefix: p}
			default:
				path := []bgp.ASN{from}
				for n := rng.Intn(4); n > 0; n-- {
					path = append(path, bgp.ASN(100+rng.Intn(3)))
				}
				r := &Route{Prefix: p, Path: path, From: from, Rel: rels[rng.Intn(len(rels))]}
				old, best, changed = tb.Update(r)
				if ref[p] == nil {
					ref[p] = make(map[bgp.ASN]*Route)
				}
				ref[p][from] = r
			}
			after := rescan(ref[p])
			if !old.Equal(before) || !best.Equal(after) || changed != !before.Equal(after) {
				t.Fatalf("seed %d step %d %s from %d: got (%v, %v, %v), rescan (%v, %v, %v)",
					seed, step, p, from, old, best, changed, before, after, !before.Equal(after))
			}
			if got, ok := tb.Best(p); ok != (after != nil) || !got.Equal(after) {
				t.Fatalf("seed %d step %d: Best(%s) = %v, rescan %v", seed, step, p, got, after)
			}
			resident := 0
			for q, cands := range ref {
				if len(cands) > 0 {
					resident++
				}
				if got := tb.Candidates(q); len(got) != len(cands) {
					t.Fatalf("seed %d step %d: %d candidates for %s, want %d", seed, step, len(got), q, len(cands))
				}
				for _, r := range tb.Candidates(q) {
					if !r.Equal(cands[r.From]) {
						t.Fatalf("seed %d step %d: candidate %v is not the last one installed from %d", seed, step, r, r.From)
					}
				}
			}
			if tb.Len() != resident {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, tb.Len(), resident)
			}
			for _, addr := range []prefix.Addr{prefix.MustParseAddr("10.0.0.1"), prefix.MustParseAddr("10.0.1.1"), prefix.MustParseAddr("2001:db8::1")} {
				var want *Route
				for _, q := range prefixes {
					if r := rescan(ref[q]); r != nil && q.ContainsAddr(addr) && (want == nil || q.Bits() > want.Prefix.Bits()) {
						want = r
					}
				}
				if got, _ := tb.Resolve(addr); !got.Equal(want) {
					t.Fatalf("seed %d step %d: Resolve(%s) = %v, rescan %v", seed, step, addr, got, want)
				}
			}
		}
	}
}

// TestTableChurnReusesStates: under 10k random Update/Withdraw rounds over
// nested v4 and v6 prefixes from four neighbors, every state the table
// has carved holds a prefix or is on its free list, and it carves a new
// one only when more prefixes are held than ever before.
func TestTableChurnReusesStates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pool []prefix.Prefix
	for i := range 32 {
		pool = append(pool,
			prefix.New(prefix.AddrFrom4(0x0a000000|uint32(i)<<16), 12+i%12),
			prefix.New(prefix.AddrFrom16(0x20010db800000000|uint64(i)<<16, 0), 32+i%24))
	}
	tb := NewTable(42)
	high := 0
	for round := 0; round < 10_000; round++ {
		p, from := pool[rng.Intn(len(pool))], bgp.ASN(1+rng.Intn(4))
		if rng.Intn(2) == 0 {
			tb.Update(&Route{Prefix: p, From: from, Rel: topo.Peer, Path: []bgp.ASN{from, 9}})
		} else {
			tb.Withdraw(p, from)
		}
		high = max(high, tb.Len())
		if tb.Len()+len(tb.free) != tb.carved || tb.carved != high {
			t.Fatalf("round %d: %d states held + %d free, %d carved, high-water mark %d", round, tb.Len(), len(tb.free), tb.carved, high)
		}
		for _, st := range tb.free {
			if st.best != nil || len(st.cands) != 0 {
				t.Fatalf("round %d: free state still holds routes", round)
			}
		}
	}
	if high < 32 {
		t.Fatalf("churn too small to show reuse: high-water mark %d states", high)
	}
}
