package route

import (
	"slices"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Table is the routing table of one AS: per-prefix candidate sets plus the
// selected best route, indexed in a radix trie for longest-prefix match.
type Table struct {
	self     bgp.ASN
	prefixes map[prefix.Prefix]*prefixState
	best     *prefix.Trie[*Route]
	routes   int
}

// prefixState holds one prefix's candidates, at most one per neighbor.
// Each From sits beside its route, so finding a neighbor's candidate reads
// one slice and dereferences nothing.
type prefixState struct {
	cands []candidate
	best  *Route
}

type candidate struct {
	from bgp.ASN // 0 = local
	r    *Route
}

func (st *prefixState) find(from bgp.ASN) int {
	for i := range st.cands {
		if st.cands[i].from == from {
			return i
		}
	}
	return -1
}

// rescan runs the full decision process over every candidate.
func (st *prefixState) rescan() *Route {
	var best *Route
	for _, c := range st.cands {
		if best == nil || Better(c.r, best) {
			best = c.r
		}
	}
	return best
}

// NewTable returns an empty table for the AS with the given number.
func NewTable(self bgp.ASN) *Table {
	return &Table{
		self:     self,
		prefixes: make(map[prefix.Prefix]*prefixState),
		best:     prefix.NewTrie[*Route](),
	}
}

// Self returns the owning ASN.
func (t *Table) Self() bgp.ASN { return t.self }

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
func (t *Table) Update(r *Route) (old, best *Route, changed bool) {
	st := t.prefixes[r.Prefix]
	if st == nil {
		st = &prefixState{}
		t.prefixes[r.Prefix] = st
	}
	old = st.best
	i := st.find(r.From)
	if i < 0 {
		st.cands = append(st.cands, candidate{from: r.From, r: r})
		t.routes++
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
func (t *Table) Withdraw(p prefix.Prefix, from bgp.ASN) (old, best *Route, changed bool) {
	st := t.prefixes[p]
	if st == nil {
		return nil, nil, false
	}
	i := st.find(from)
	if i < 0 {
		return st.best, st.best, false
	}
	st.cands = slices.Delete(st.cands, i, i+1)
	t.routes--
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
func (t *Table) Originate(p prefix.Prefix) (old, best *Route, changed bool) {
	return t.Update(&Route{Prefix: p})
}

// OriginateWithPath installs a locally originated route for p whose AS path
// already carries the given suffix (origin last) — the forged-origination
// primitive behind type-1/type-N hijacks and prepend forgery. The router
// prepends its own ASN on export exactly as for an honest origination, so
// downstream ASes see [self, suffix...] and attribute the prefix to
// suffix's last hop. An empty suffix is an honest Originate.
func (t *Table) OriginateWithPath(p prefix.Prefix, suffix []bgp.ASN) (old, best *Route, changed bool) {
	return t.Update(&Route{Prefix: p, Path: slices.Clone(suffix)})
}

// WithdrawLocal removes the local origination of p.
func (t *Table) WithdrawLocal(p prefix.Prefix) (old, best *Route, changed bool) {
	return t.Withdraw(p, 0)
}

// settle records best as p's selected route and keeps the trie in step.
func (t *Table) settle(p prefix.Prefix, st *prefixState, old, best *Route) (*Route, *Route, bool) {
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
func (t *Table) Best(p prefix.Prefix) (*Route, bool) {
	st := t.prefixes[p]
	if st == nil || st.best == nil {
		return nil, false
	}
	return st.best, true
}

// Candidates returns all candidate routes for p (selection input), in no
// particular order.
func (t *Table) Candidates(p prefix.Prefix) []*Route {
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

// NumCandidates returns the number of candidate routes for exactly p
// without allocating (Candidates copies; counters only need the size).
func (t *Table) NumCandidates(p prefix.Prefix) int {
	st := t.prefixes[p]
	if st == nil {
		return 0
	}
	return len(st.cands)
}

// Routes returns the number of candidate routes across all prefixes.
func (t *Table) Routes() int { return t.routes }

// Resolve performs longest-prefix-match forwarding for addr and returns the
// best route of the most specific covering prefix. This is "where does my
// traffic for this address actually go" — the data-plane question behind
// hijack impact and mitigation success.
func (t *Table) Resolve(addr prefix.Addr) (*Route, bool) {
	_, r, ok := t.best.LongestMatch(addr)
	if !ok || r == nil {
		return nil, false
	}
	return r, true
}

// ResolveOrigin returns the origin AS currently receiving traffic for addr
// from this AS's viewpoint.
func (t *Table) ResolveOrigin(addr prefix.Addr) (bgp.ASN, bool) {
	r, ok := t.Resolve(addr)
	if !ok {
		return 0, false
	}
	return r.Origin(t.self), true
}

// ResolveBestFor returns the best route of the most specific selected
// prefix that contains p (or is p itself) — what "show ip bgp <prefix>"
// answers on a router when the exact prefix is absent.
func (t *Table) ResolveBestFor(p prefix.Prefix) (*Route, bool) {
	_, r, ok := t.best.LongestMatchPrefix(p)
	if !ok || r == nil {
		return nil, false
	}
	return r, true
}

// WalkCovered visits the selected best routes of all prefixes contained in
// p (p itself included when present) — the "longer-prefixes" form of a
// looking-glass query, which is how a monitor notices sub-prefix hijacks.
func (t *Table) WalkCovered(p prefix.Prefix, fn func(*Route) bool) {
	t.best.CoveredBy(p, func(_ prefix.Prefix, r *Route) bool { return fn(r) })
}

// WalkBest visits every selected best route in trie order.
func (t *Table) WalkBest(fn func(*Route) bool) {
	t.best.Walk(func(_ prefix.Prefix, r *Route) bool { return fn(r) })
}

// Len returns the number of prefixes with at least one candidate.
func (t *Table) Len() int { return len(t.prefixes) }
