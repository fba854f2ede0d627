// Package rib holds full-table routing state at collector scale: a resident
// RIB bootstrapped from a TABLE_DUMP_V2 snapshot (~1M v4 + ~220k v6 routes)
// and kept current by the live feed, with the incremental indices a
// looking-glass needs — per-origin prefix counts, per-mask histograms, and
// table-movement counters.
//
// The paper's detector only needs the operator's own prefixes, but ROADMAP
// item 4 ("RIB-scale state") asks for the full-table view so the node can
// answer "who is AS64512 and where does this prefix route" the way a glass
// service does, and so detection quality isn't bounded by how little global
// state the node holds.
package rib

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/route"
	"artemis/internal/topo"
)

// Table is a concurrency-safe full routing table with incremental
// route-intelligence indices. Candidate routes are keyed by vantage point
// (the collector peer that exported them); best-route selection reuses the
// route package's decision process, where all peers rank equal (topo.Peer)
// so shortest path wins with a deterministic tiebreak.
type Table struct {
	mu sync.RWMutex
	rt *route.Table
	// origins counts, per origin AS, how many best routes it originates.
	origins map[bgp.ASN]*originCount
	// masks is the per-mask histogram of resident best prefixes:
	// masks[0][0..32] for v4, masks[1][0..128] for v6.
	masks [2][129]int64
	// announces/withdraws are live table-movement totals per family
	// (bootstrap loading is not movement and does not count).
	announces [2]int64
	withdraws [2]int64
}

type originCount struct{ v4, v6 int64 }

// New returns an empty table.
func New() *Table {
	return &Table{
		rt:      route.NewTable(0),
		origins: make(map[bgp.ASN]*originCount),
	}
}

func famIdx(p prefix.Prefix) int {
	if p.Is6() {
		return 1
	}
	return 0
}

// insertLocked installs one candidate route, updating the indices. The
// path is retained, so callers handing over pooled storage must set clone;
// live marks feed-driven movement (bootstrap loading passes false). Caller
// holds the write lock.
func (t *Table) insertLocked(p prefix.Prefix, path []bgp.ASN, from bgp.ASN, clone, live bool) {
	if len(path) == 0 || from == 0 {
		return // a RIB route always has an origin and a vantage point
	}
	if clone {
		path = slices.Clone(path)
	}
	if live {
		t.announces[famIdx(p)]++
	}
	old, best, changed := t.rt.Update(&route.Route{Prefix: p, Path: path, From: from, Rel: topo.Peer})
	t.noteBestChange(p, old, best, changed)
}

// removeLocked withdraws the candidate learned from the given vantage
// point. Caller holds the write lock.
func (t *Table) removeLocked(p prefix.Prefix, from bgp.ASN, live bool) {
	if live {
		t.withdraws[famIdx(p)]++
	}
	old, best, changed := t.rt.Withdraw(p, from)
	t.noteBestChange(p, old, best, changed)
}

// noteBestChange maintains the origin and mask indices across one best-route
// transition. Caller holds the write lock.
func (t *Table) noteBestChange(p prefix.Prefix, old, best *route.Route, changed bool) {
	if !changed {
		return
	}
	fam := famIdx(p)
	if old != nil {
		t.bumpOrigin(old.Origin(0), fam, -1)
	}
	if best != nil {
		t.bumpOrigin(best.Origin(0), fam, +1)
	}
	switch {
	case old == nil && best != nil:
		t.masks[fam][p.Bits()]++
	case old != nil && best == nil:
		t.masks[fam][p.Bits()]--
	}
}

func (t *Table) bumpOrigin(asn bgp.ASN, fam int, delta int64) {
	if asn == 0 {
		return
	}
	oc := t.origins[asn]
	if oc == nil {
		oc = &originCount{}
		t.origins[asn] = oc
	}
	if fam == 0 {
		oc.v4 += delta
	} else {
		oc.v6 += delta
	}
	if oc.v4 == 0 && oc.v6 == 0 {
		delete(t.origins, asn)
	}
}

// Apply folds a batch of live feed events into the table under one write
// lock, counting table movement. Event storage is pooled (feedtypes batch
// contract), so retained paths are deep-copied here.
func (t *Table) Apply(evs []feedtypes.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case feedtypes.Announce:
			t.insertLocked(ev.Prefix, ev.Path, ev.VantagePoint, true, true)
		case feedtypes.Withdraw:
			t.removeLocked(ev.Prefix, ev.VantagePoint, true)
		}
	}
}

// Resolve performs longest-prefix-match forwarding for addr. The returned
// route is immutable once installed and safe to read without the lock.
func (t *Table) Resolve(addr prefix.Addr) (*route.Route, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rt.Resolve(addr)
}

// ResolveBestFor returns the best route of the most specific resident
// prefix containing p (or p itself).
func (t *Table) ResolveBestFor(p prefix.Prefix) (*route.Route, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rt.ResolveBestFor(p)
}

// LookupResult answers a glass-style prefix query.
type LookupResult struct {
	// Matched is the most specific resident prefix covering the query.
	Matched prefix.Prefix
	// VantagePoint exported the best route; Path is as received, Origin
	// its last hop.
	VantagePoint bgp.ASN
	Path         []bgp.ASN
	Origin       bgp.ASN
	// Candidates is how many vantage points carry the matched prefix.
	Candidates int
}

// Lookup is the "/v1/lookup/{prefix}" question: longest-prefix-match p and
// describe the winning route. The returned path is a copy.
func (t *Table) Lookup(p prefix.Prefix) (LookupResult, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rt.ResolveBestFor(p)
	if !ok {
		return LookupResult{}, false
	}
	return LookupResult{
		Matched:      r.Prefix,
		VantagePoint: r.From,
		Path:         slices.Clone(r.Path),
		Origin:       r.Origin(0),
		Candidates:   t.rt.NumCandidates(r.Prefix),
	}, true
}

// OriginCounts returns how many resident best routes asn originates, per
// family — the "/v1/as/{asn}" question, answered from the incremental
// origin index without walking the table.
func (t *Table) OriginCounts(asn bgp.ASN) (v4, v6 int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if oc := t.origins[asn]; oc != nil {
		return oc.v4, oc.v6
	}
	return 0, 0
}

// Len returns the number of resident prefixes with at least one candidate.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rt.Len()
}

// Stats is a point-in-time snapshot of the table's size and movement.
type Stats struct {
	PrefixesV4, PrefixesV6   int64
	Routes                   int64
	Origins                  int
	AnnouncesV4, AnnouncesV6 int64
	WithdrawsV4, WithdrawsV6 int64
	// MasksV4[b] / MasksV6[b] count resident best prefixes of length b.
	MasksV4 [33]int64
	MasksV6 [129]int64
}

// Snapshot captures the current stats.
func (t *Table) Snapshot() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var s Stats
	for b := 0; b <= 32; b++ {
		s.MasksV4[b] = t.masks[0][b]
		s.PrefixesV4 += t.masks[0][b]
	}
	for b := 0; b <= 128; b++ {
		s.MasksV6[b] = t.masks[1][b]
		s.PrefixesV6 += t.masks[1][b]
	}
	s.Routes = int64(t.rt.Routes())
	s.Origins = len(t.origins)
	s.AnnouncesV4, s.AnnouncesV6 = t.announces[0], t.announces[1]
	s.WithdrawsV4, s.WithdrawsV6 = t.withdraws[0], t.withdraws[1]
	return s
}

// WriteProm renders the snapshot in the Prometheus text shape used by the
// repo's other snapshots (internal/stats): untyped samples, zero-count mask
// buckets omitted to keep /metrics readable at full-table scale.
func (s Stats) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "artemis_rib_prefixes{family=\"4\"} %d\n", s.PrefixesV4)
	fmt.Fprintf(w, "artemis_rib_prefixes{family=\"6\"} %d\n", s.PrefixesV6)
	fmt.Fprintf(w, "artemis_rib_routes %d\n", s.Routes)
	fmt.Fprintf(w, "artemis_rib_origins %d\n", s.Origins)
	fmt.Fprintf(w, "artemis_rib_moves_total{family=\"4\",kind=\"announce\"} %d\n", s.AnnouncesV4)
	fmt.Fprintf(w, "artemis_rib_moves_total{family=\"6\",kind=\"announce\"} %d\n", s.AnnouncesV6)
	fmt.Fprintf(w, "artemis_rib_moves_total{family=\"4\",kind=\"withdraw\"} %d\n", s.WithdrawsV4)
	fmt.Fprintf(w, "artemis_rib_moves_total{family=\"6\",kind=\"withdraw\"} %d\n", s.WithdrawsV6)
	for b, n := range s.MasksV4 {
		if n != 0 {
			fmt.Fprintf(w, "artemis_rib_mask_prefixes{family=\"4\",mask=\"%d\"} %d\n", b, n)
		}
	}
	for b, n := range s.MasksV6 {
		if n != 0 {
			fmt.Fprintf(w, "artemis_rib_mask_prefixes{family=\"6\",mask=\"%d\"} %d\n", b, n)
		}
	}
}
