package route

import (
	"math/rand"
	"slices"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/topo"
)

// The reference below is the route table as it stood before per-prefix
// state moved into the trie: a prefix map beside a separate best-route
// trie, kept verbatim (identifiers renamed) so TestTableMatchesReference
// can hold the one-index Table to it.

// refTable is the routing table of one AS: per-prefix candidate sets plus the
// selected best route, indexed in a radix trie for longest-prefix match.
type refTable struct {
	self     bgp.ASN
	prefixes map[prefix.Prefix]*refPrefixState
	best     *prefix.Trie[*Route]
}

// refPrefixState holds one prefix's candidates, at most one per neighbor.
// Each From sits beside its route, so finding a neighbor's candidate reads
// one slice and dereferences nothing.
type refPrefixState struct {
	cands []refCandidate
	best  *Route
}

type refCandidate struct {
	from bgp.ASN // 0 = local
	r    *Route
}

func (st *refPrefixState) find(from bgp.ASN) int {
	for i := range st.cands {
		if st.cands[i].from == from {
			return i
		}
	}
	return -1
}

// rescan runs the full decision process over every candidate.
func (st *refPrefixState) rescan() *Route {
	var best *Route
	for _, c := range st.cands {
		if best == nil || Better(c.r, best) {
			best = c.r
		}
	}
	return best
}

// newRefTable returns an empty table for the AS with the given number.
func newRefTable(self bgp.ASN) *refTable {
	return &refTable{
		self:     self,
		prefixes: make(map[prefix.Prefix]*refPrefixState),
		best:     prefix.NewTrie[*Route](),
	}
}

// Self returns the owning ASN.
func (t *refTable) Self() bgp.ASN { return t.self }

// Update installs or replaces the candidate route from r.From for r.Prefix
// and re-runs selection. It returns the previous and new best routes and
// whether the best route changed. Routes containing the local ASN in their
// path are rejected by the caller (Node), not here.
//
// Selection is incremental and exact: Better is a strict total order over
// candidates with distinct From, so a route that beats the best becomes
// the best, a replacement of the best by a route at least as good keeps
// its From on top, and only a replacement of the best by a worse route
// rescans; anything else leaves the best unchanged.
func (t *refTable) Update(r *Route) (old, best *Route, changed bool) {
	st := t.prefixes[r.Prefix]
	if st == nil {
		st = &refPrefixState{}
		t.prefixes[r.Prefix] = st
	}
	old = st.best
	i := st.find(r.From)
	if i < 0 {
		st.cands = append(st.cands, refCandidate{from: r.From, r: r})
	} else {
		st.cands[i].r = r
	}
	switch {
	case old == nil || Better(r, old):
		best = r
	case old.From != r.From:
		best = old
	case !Better(old, r):
		best = r
	default:
		best = st.rescan()
	}
	return t.settle(r.Prefix, st, old, best)
}

// Withdraw removes the candidate learned from the given neighbor (0 for a
// locally originated route) and re-runs selection.
func (t *refTable) Withdraw(p prefix.Prefix, from bgp.ASN) (old, best *Route, changed bool) {
	st := t.prefixes[p]
	if st == nil {
		return nil, nil, false
	}
	i := st.find(from)
	if i < 0 {
		return st.best, st.best, false
	}
	st.cands = slices.Delete(st.cands, i, i+1)
	old, best = st.best, st.best
	if old.From == from {
		best = st.rescan()
	}
	old, best, changed = t.settle(p, st, old, best)
	if len(st.cands) == 0 {
		delete(t.prefixes, p)
	}
	return old, best, changed
}

// Originate installs a locally originated route for p.
func (t *refTable) Originate(p prefix.Prefix) (old, best *Route, changed bool) {
	return t.Update(&Route{Prefix: p})
}

// OriginateWithPath installs a locally originated route for p whose AS path
// already carries the given suffix (origin last) — the forged-origination
// primitive behind type-1/type-N hijacks and prepend forgery. The router
// prepends its own ASN on export exactly as for an honest origination, so
// downstream ASes see [self, suffix...] and attribute the prefix to
// suffix's last hop. An empty suffix is an honest Originate.
func (t *refTable) OriginateWithPath(p prefix.Prefix, suffix []bgp.ASN) (old, best *Route, changed bool) {
	return t.Update(&Route{Prefix: p, Path: slices.Clone(suffix)})
}

// WithdrawLocal removes the local origination of p.
func (t *refTable) WithdrawLocal(p prefix.Prefix) (old, best *Route, changed bool) {
	return t.Withdraw(p, 0)
}

// settle records best as p's selected route and keeps the trie in step.
func (t *refTable) settle(p prefix.Prefix, st *refPrefixState, old, best *Route) (*Route, *Route, bool) {
	st.best = best
	if best == old {
		return old, best, false
	}
	// A content-identical re-announcement arrives as a fresh allocation, so
	// the pointer compare above misses it; without this check every duplicate
	// UPDATE (common in real feeds, guaranteed under RIB reload) would
	// reinsert into the trie and re-propagate downstream.
	if best.Equal(old) {
		return old, best, false
	}
	if best == nil {
		t.best.Delete(p)
	} else {
		t.best.Insert(p, best)
	}
	return old, best, true
}

// Best returns the selected route for exactly p.
func (t *refTable) Best(p prefix.Prefix) (*Route, bool) {
	st := t.prefixes[p]
	if st == nil || st.best == nil {
		return nil, false
	}
	return st.best, true
}

// Candidates returns all candidate routes for p (selection input), in no
// particular order.
func (t *refTable) Candidates(p prefix.Prefix) []*Route {
	st := t.prefixes[p]
	if st == nil {
		return nil
	}
	out := make([]*Route, len(st.cands))
	for i, c := range st.cands {
		out[i] = c.r
	}
	return out
}

// Resolve performs longest-prefix-match forwarding for addr and returns the
// best route of the most specific covering prefix. This is "where does my
// traffic for this address actually go" — the data-plane question behind
// hijack impact and mitigation success.
func (t *refTable) Resolve(addr prefix.Addr) (*Route, bool) {
	_, r, ok := t.best.LongestMatch(addr)
	if !ok || r == nil {
		return nil, false
	}
	return r, true
}

// ResolveOrigin returns the origin AS currently receiving traffic for addr
// from this AS's viewpoint.
func (t *refTable) ResolveOrigin(addr prefix.Addr) (bgp.ASN, bool) {
	r, ok := t.Resolve(addr)
	if !ok {
		return 0, false
	}
	return r.Origin(t.self), true
}

// ResolveBestFor returns the best route of the most specific selected
// prefix that contains p (or is p itself) — what "show ip bgp <prefix>"
// answers on a router when the exact prefix is absent.
func (t *refTable) ResolveBestFor(p prefix.Prefix) (*Route, bool) {
	_, r, ok := t.best.LongestMatchPrefix(p)
	if !ok || r == nil {
		return nil, false
	}
	return r, true
}

// WalkCovered visits the selected best routes of all prefixes contained in
// p (p itself included when present) — the "longer-prefixes" form of a
// looking-glass query, which is how a monitor notices sub-prefix hijacks.
func (t *refTable) WalkCovered(p prefix.Prefix, fn func(*Route) bool) {
	t.best.CoveredBy(p, func(_ prefix.Prefix, r *Route) bool { return fn(r) })
}

// WalkBest visits every selected best route in trie order.
func (t *refTable) WalkBest(fn func(*Route) bool) {
	t.best.Walk(func(_ prefix.Prefix, r *Route) bool { return fn(r) })
}

// Len returns the number of prefixes with at least one candidate.
func (t *refTable) Len() int { return len(t.prefixes) }

// TestTableMatchesReference drives Table and the two-index reference with
// the same seeded random sequences of Update, Withdraw, Originate and
// OriginateWithPath over nested v4 and v6 prefixes from six neighbors plus
// the local AS. The path space is small, so content-identical
// re-announcements are common. Every returned (old, best, changed) triple
// must agree by content, and after every operation so must Best,
// Candidates (as a set), Len, Resolve and ResolveBestFor at random
// addresses, and the WalkCovered and WalkBest sequences.
func TestTableMatchesReference(t *testing.T) {
	prefixes := []prefix.Prefix{
		prefix.MustParse("0.0.0.0/0"), prefix.MustParse("10.0.0.0/8"),
		prefix.MustParse("10.0.0.0/16"), prefix.MustParse("10.0.0.0/22"),
		prefix.MustParse("10.0.0.0/23"), prefix.MustParse("10.0.1.0/24"),
		prefix.MustParse("10.0.2.0/24"), prefix.MustParse("10.128.0.0/9"),
		prefix.MustParse("::/0"), prefix.MustParse("2001:db8::/32"),
		prefix.MustParse("2001:db8::/48"), prefix.MustParse("2001:db8:0:1::/64"),
		prefix.MustParse("2001:db8:1::/48"),
	}
	// Queries also name prefixes the tables never hold.
	queries := append(slices.Clone(prefixes),
		prefix.MustParse("10.0.3.0/24"), prefix.MustParse("10.0.0.128/25"),
		prefix.MustParse("11.0.0.0/8"), prefix.MustParse("2001:db8:2::/48"),
		prefix.MustParse("2001:db8::/128"))
	rels := []topo.Rel{topo.Customer, topo.Peer, topo.Provider}
	randPath := func(rng *rand.Rand) []bgp.ASN {
		path := make([]bgp.ASN, rng.Intn(3))
		for i := range path {
			path[i] = bgp.ASN(100 + rng.Intn(2))
		}
		return path
	}
	randAddr := func(rng *rand.Rand) prefix.Addr {
		if rng.Intn(2) == 0 { // 10.0.0.0/14, 10.128.0.0/14 or 11.0.0.0/14
			base := [...]uint32{0x0a000000, 0x0a800000, 0x0b000000}[rng.Intn(3)]
			return prefix.AddrFrom4(base | rng.Uint32()&0x3ffff)
		}
		// 2001:db8:0-3:0-2::/64, or 2001:db9:: outside the /32
		base := [...]uint64{0x20010db800000000, 0x20010db900000000}[rng.Intn(2)]
		return prefix.AddrFrom16(base|uint64(rng.Intn(4))<<16|uint64(rng.Intn(3)), rng.Uint64())
	}
	sameSet := func(got, want []*Route) bool {
		if len(got) != len(want) {
			return false
		}
		for _, g := range got {
			if !slices.ContainsFunc(want, g.Equal) {
				return false
			}
		}
		return true
	}
	collect := func(walk func(func(*Route) bool)) (out []*Route) {
		walk(func(r *Route) bool { out = append(out, r); return true })
		return out
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, ref := NewTable(42), newRefTable(42)
		for step := 0; step < 4000; step++ {
			p := prefixes[rng.Intn(len(prefixes))]
			from := bgp.ASN(rng.Intn(7)) // 0 = local
			var op string
			var got, want [2]*Route
			var gotCh, wantCh bool
			switch k := rng.Intn(10); {
			case k < 3:
				op = "Withdraw"
				got[0], got[1], gotCh = tb.Withdraw(p, from)
				want[0], want[1], wantCh = ref.Withdraw(p, from)
			case from == 0 && k < 6:
				op = "Originate"
				got[0], got[1], gotCh = tb.Originate(p)
				want[0], want[1], wantCh = ref.Originate(p)
			case from == 0:
				op = "OriginateWithPath"
				suffix := randPath(rng)
				got[0], got[1], gotCh = tb.OriginateWithPath(p, suffix)
				want[0], want[1], wantCh = ref.OriginateWithPath(p, suffix)
			default:
				op = "Update"
				r := &Route{Prefix: p, Path: append([]bgp.ASN{from}, randPath(rng)...), From: from, Rel: rels[rng.Intn(len(rels))]}
				got[0], got[1], gotCh = tb.Update(r)
				want[0], want[1], wantCh = ref.Update(r)
			}
			at := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s %s from %d): "+format, append([]any{seed, step, op, p, from}, args...)...)
			}
			if !got[0].Equal(want[0]) || !got[1].Equal(want[1]) || gotCh != wantCh {
				at("returned (%v, %v, %v), reference (%v, %v, %v)", got[0], got[1], gotCh, want[0], want[1], wantCh)
			}
			if tb.Len() != ref.Len() {
				at("Len %d, reference %d", tb.Len(), ref.Len())
			}
			for _, q := range queries {
				g, gok := tb.Best(q)
				w, wok := ref.Best(q)
				if gok != wok || !g.Equal(w) {
					at("Best(%s) = %v,%v, reference %v,%v", q, g, gok, w, wok)
				}
				if !sameSet(tb.Candidates(q), ref.Candidates(q)) {
					at("Candidates(%s) = %v, reference %v", q, tb.Candidates(q), ref.Candidates(q))
				}
				g, gok = tb.ResolveBestFor(q)
				w, wok = ref.ResolveBestFor(q)
				if gok != wok || !g.Equal(w) {
					at("ResolveBestFor(%s) = %v,%v, reference %v,%v", q, g, gok, w, wok)
				}
				gw := collect(func(fn func(*Route) bool) { tb.WalkCovered(q, fn) })
				ww := collect(func(fn func(*Route) bool) { ref.WalkCovered(q, fn) })
				if !slices.EqualFunc(gw, ww, (*Route).Equal) {
					at("WalkCovered(%s) = %v, reference %v", q, gw, ww)
				}
			}
			for range 4 {
				a := randAddr(rng)
				g, gok := tb.Resolve(a)
				w, wok := ref.Resolve(a)
				if gok != wok || !g.Equal(w) {
					at("Resolve(%s) = %v,%v, reference %v,%v", a, g, gok, w, wok)
				}
			}
			if gw, ww := collect(tb.WalkBest), collect(ref.WalkBest); !slices.EqualFunc(gw, ww, (*Route).Equal) {
				at("WalkBest = %v, reference %v", gw, ww)
			}
		}
	}
}
