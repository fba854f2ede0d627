package route

import (
	"slices"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Table is the routing table of one AS: per-prefix candidate sets and the
// selected best route, held in one radix trie that answers both exact and
// longest-prefix-match queries. A prefix is in the trie exactly while it
// has a candidate, so every stored state has a best route.
//
// States are carved from chunks the table owns, which grow geometrically
// like the trie's node chunks; a state whose prefix loses its last
// candidate goes on a free list for the next new prefix. State storage
// stays at its high-water mark and is reused, never returned to the heap.
type Table struct {
	self   bgp.ASN
	states *prefix.Trie[*prefixState]
	chunk  []prefixState  // the current chunk's uncarved tail
	free   []*prefixState // states of withdrawn prefixes
	carved int            // states carved so far
}

// prefixState holds one prefix's candidates, at most one per neighbor.
// Each From sits beside its route, so finding a neighbor's candidate reads
// one slice and dereferences nothing. cands starts out on one, so a prefix
// heard from a single neighbor allocates nothing beyond the state itself.
type prefixState struct {
	cands []candidate
	one   [1]candidate
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
	return &Table{self: self, states: prefix.NewTrie[*prefixState]()}
}

// State chunk sizes: the first holds minChunk states, each next one as
// many as were carved before it, up to maxChunk.
const (
	minChunk = 8
	maxChunk = 1024
)

// newState returns an empty state: a freed one when there is one, else the
// next of the current chunk.
func (t *Table) newState() *prefixState {
	var st *prefixState
	if n := len(t.free); n > 0 {
		st = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.chunk) == 0 {
			t.chunk = make([]prefixState, min(max(t.carved, minChunk), maxChunk))
		}
		st = &t.chunk[0]
		t.chunk = t.chunk[1:]
		t.carved++
	}
	st.cands = st.one[:0]
	return st
}

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
	ref, added := t.states.Ref(r.Prefix)
	st := *ref
	if added {
		st = t.newState()
		*ref = st
	}
	old = st.best
	i := st.find(r.From)
	if i < 0 {
		st.cands = append(st.cands, candidate{from: r.From, r: r})
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
	return settle(st, old, best)
}

// Withdraw removes the candidate learned from the given neighbor (0 for a
// locally originated route) and re-runs selection.
func (t *Table) Withdraw(p prefix.Prefix, from bgp.ASN) (old, best *Route, changed bool) {
	st, _ := t.states.Get(p)
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
	old, best, changed = settle(st, old, best)
	if len(st.cands) == 0 {
		t.states.Delete(p)
		*st = prefixState{}
		t.free = append(t.free, st)
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

// settle records best as the prefix's selected route and reports whether
// the selection changed.
func settle(st *prefixState, old, best *Route) (*Route, *Route, bool) {
	st.best = best
	// A content-identical re-announcement arrives as a fresh allocation, so
	// a pointer compare alone misses it; without Equal every duplicate
	// UPDATE (common in real feeds, guaranteed under RIB reload) would count
	// as a change and re-propagate downstream.
	return old, best, best != old && !best.Equal(old)
}

// Best returns the selected route for exactly p.
func (t *Table) Best(p prefix.Prefix) (*Route, bool) {
	st, _ := t.states.Get(p)
	if st == nil {
		return nil, false
	}
	return st.best, true
}

// Candidates returns all candidate routes for p (selection input), in no
// particular order.
func (t *Table) Candidates(p prefix.Prefix) []*Route {
	st, _ := t.states.Get(p)
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
func (t *Table) Resolve(addr prefix.Addr) (*Route, bool) {
	_, st, ok := t.states.LongestMatch(addr)
	if !ok {
		return nil, false
	}
	return st.best, true
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
	_, st, ok := t.states.LongestMatchPrefix(p)
	if !ok {
		return nil, false
	}
	return st.best, true
}

// WalkCovered visits the selected best routes of all prefixes contained in
// p (p itself included when present) — the "longer-prefixes" form of a
// looking-glass query, which is how a monitor notices sub-prefix hijacks.
func (t *Table) WalkCovered(p prefix.Prefix, fn func(*Route) bool) {
	t.states.CoveredBy(p, func(_ prefix.Prefix, st *prefixState) bool { return fn(st.best) })
}

// WalkBest visits every selected best route in trie order.
func (t *Table) WalkBest(fn func(*Route) bool) {
	t.states.Walk(func(_ prefix.Prefix, st *prefixState) bool { return fn(st.best) })
}

// Len returns the number of prefixes with at least one candidate.
func (t *Table) Len() int { return t.states.Len() }
