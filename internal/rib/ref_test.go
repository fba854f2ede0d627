package rib

import (
	"slices"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/route"
	"artemis/internal/topo"
)

// refTable is the reference the table is held to: the simulator's
// route.Table, where each route is a heap object and selection is
// route.Better over topo.Peer routes, with origin and mask counts kept
// beside it the plain way, per best-route change.
type refTable struct {
	rt        *route.Table
	routes    int64
	origins   map[bgp.ASN]originCount
	masks     [2][129]int64
	announces [2]int64
	withdraws [2]int64
}

func newRef() *refTable {
	return &refTable{rt: route.NewTable(0), origins: make(map[bgp.ASN]originCount)}
}

func (r *refTable) note(p prefix.Prefix, old, best *route.Route, changed bool) {
	if !changed {
		return
	}
	fam := famIdx(p)
	bump := func(asn bgp.ASN, d int64) {
		if asn == 0 {
			return
		}
		oc := r.origins[asn]
		oc[fam] += int32(d)
		if oc == (originCount{}) {
			delete(r.origins, asn)
		} else {
			r.origins[asn] = oc
		}
	}
	if old != nil {
		bump(old.Origin(0), -1)
		r.masks[fam][p.Bits()]--
	}
	if best != nil {
		bump(best.Origin(0), +1)
		r.masks[fam][p.Bits()]++
	}
}

func (r *refTable) update(p prefix.Prefix, vp bgp.ASN, path []bgp.ASN) {
	before := len(r.rt.Candidates(p))
	old, best, changed := r.rt.Update(&route.Route{Prefix: p, Path: slices.Clone(path), From: vp, Rel: topo.Peer})
	r.routes += int64(len(r.rt.Candidates(p)) - before)
	r.note(p, old, best, changed)
}

func (r *refTable) apply(evs []feedtypes.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case feedtypes.Announce:
			if len(ev.Path) == 0 || ev.VantagePoint == 0 {
				continue
			}
			r.announces[famIdx(ev.Prefix)]++
			r.update(ev.Prefix, ev.VantagePoint, ev.Path)
		case feedtypes.Withdraw:
			r.withdraws[famIdx(ev.Prefix)]++
			before := len(r.rt.Candidates(ev.Prefix))
			old, best, changed := r.rt.Withdraw(ev.Prefix, ev.VantagePoint)
			r.routes += int64(len(r.rt.Candidates(ev.Prefix)) - before)
			r.note(ev.Prefix, old, best, changed)
		}
	}
}

func (r *refTable) lookup(p prefix.Prefix) (LookupResult, bool) {
	b, ok := r.rt.ResolveBestFor(p)
	if !ok {
		return LookupResult{}, false
	}
	return LookupResult{Matched: b.Prefix, VantagePoint: b.From, Path: b.Path, Origin: b.Origin(0), Candidates: len(r.rt.Candidates(b.Prefix))}, true
}

func (r *refTable) snapshot() Stats {
	s := Stats{Routes: r.routes, Origins: len(r.origins)}
	copy(s.MasksV4[:], r.masks[0][:])
	copy(s.MasksV6[:], r.masks[1][:])
	for _, n := range s.MasksV4 {
		s.PrefixesV4 += n
	}
	for _, n := range s.MasksV6 {
		s.PrefixesV6 += n
	}
	s.AnnouncesV4, s.AnnouncesV6 = r.announces[0], r.announces[1]
	s.WithdrawsV4, s.WithdrawsV6 = r.withdraws[0], r.withdraws[1]
	return s
}

// bestRoute is one prefix's selected route, as both tables can render it.
type bestRoute struct {
	prefix prefix.Prefix
	vp     bgp.ASN
	path   []bgp.ASN
}

func (r *refTable) bests() []bestRoute {
	var out []bestRoute
	r.rt.WalkBest(func(b *route.Route) bool {
		out = append(out, bestRoute{b.Prefix, b.From, b.Path})
		return true
	})
	return out
}

// bests walks t's trie: every resident prefix's best route, in trie
// order, its path copied out of the arena.
func bests(t *Table) []bestRoute {
	var out []bestRoute
	t.prefixes.Walk(func(p prefix.Prefix, i uint32) bool {
		st := t.state(i)
		out = append(out, bestRoute{p, st.best.vp, slices.Clone(t.path(st.best))})
		return true
	})
	return out
}

func sameBests(a, b []bestRoute) bool {
	return slices.EqualFunc(a, b, func(x, y bestRoute) bool {
		return x.prefix == y.prefix && x.vp == y.vp && slices.Equal(x.path, y.path)
	})
}
