package core

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// Monitor is the monitoring service (§2): it consumes the same feeds as
// the detector and maintains, per vantage point, which origin AS currently
// captures the owned address space — the real-time view of hijack spread
// and mitigation progress that the demo visualizes (§4).
//
// All vantage points share one prefix index: each prefix seen is interned
// once, and each probe keeps the chain of ids covering it, longest first,
// so a VP's longest match for a probe is the first chain id it holds. The
// partition of vantage points (legit / hijacked / unknown) is maintained
// incrementally: each VP caches a per-probe verdict plus its informed/bad
// counts, and an event re-walks only the chains of the probes its prefix
// covers (only those can change their longest match). Folding an event is
// one hash lookup plus O(affected probes × chain length) instead of the
// O(VPs × probes) full rescore the pre-incremental sink paid per event —
// Rescore keeps a from-scratch fold as the verification oracle.
//
// Interned ids are never freed, and a VP's slices reach the highest id it
// has itself sent, so memory is at most VPs × prefixes interned: a VP with
// a partial view still pays for every id below its highest one.
// SetConfig re-classes every interned prefix against every owned prefix:
// O(prefixes interned × owned prefixes) under the lock.
type Monitor struct {
	cfg *Config

	mu      sync.Mutex
	vps     map[bgp.ASN]*vpState
	history []Sample
	cancels []func()
	probes  []prefix.Addr
	// byAddr indexes probes in ascending address order so the probes a
	// prefix covers resolve with one binary search.
	byAddr []int
	// ids, pfxs and chains are the prefix index shared by every VP:
	// FoldIdentity → first dense id with that hash, id → interned entry,
	// probe index → covering ids, longest first.
	ids    map[uint64]int32
	pfxs   []interned
	chains [][]int32
	// tally is the running partition, updated as VP verdicts change.
	tally Sample
	// lastAt is the latest event time folded; History uses it to close
	// the series with the final plateau even when the partition has not
	// changed for a long quiet tail.
	lastAt time.Duration
}

// interned is one prefix of the monitor's shared index.
type interned struct {
	p prefix.Prefix
	// sub is the config-fixed half of Config.entryLegit: p is a strict
	// more-specific of owned space and not owned itself, so a legit origin
	// also needs Self.Has(p) — mutable, and asked at fold time.
	sub bool
	// lo, hi bound the probes p covers: byAddr[lo:hi].
	lo, hi int32
	// next is the next id whose prefix hashes alike, or -1.
	next int32
}

// vpVerdictKind is a vantage point's cached classification.
type vpVerdictKind uint8

const (
	vpUnknown vpVerdictKind = iota
	vpLegit
	vpHijacked
)

// probeStatus is a VP's cached view of one probe address.
type probeStatus uint8

const (
	probeUnmatched probeStatus = iota // no announced prefix covers it
	probeLegit                        // covered, legitimate origin
	probeBad                          // covered, illegitimate origin
)

// vpRoute is a VP's announced origin for one interned prefix, if held.
type vpRoute struct {
	origin bgp.ASN
	held   bool
}

type vpState struct {
	// routes and seen are indexed by prefix id: the announced origin as
	// seen from this vantage point across all feeds (freshest wins), and
	// the last SeenAt folded for that prefix. Ids past their length are
	// not held and never seen.
	routes []vpRoute
	seen   []time.Duration
	// status caches the per-probe verdict; informed and bad are the counts
	// of matched and illegitimately-originated probes, so the VP's verdict
	// is O(1) to read after an O(affected) update.
	status   []probeStatus
	informed int
	bad      int
}

func (st *vpState) verdict() vpVerdictKind {
	switch {
	case st.informed == 0:
		return vpUnknown
	case st.bad > 0:
		return vpHijacked
	default:
		return vpLegit
	}
}

// Sample is one point of the mitigation-progress time series.
type Sample struct {
	Time time.Duration
	// LegitVPs / HijackedVPs / UnknownVPs partition the vantage points:
	// all probes legit / any probe captured by an illegitimate origin /
	// no routing information yet.
	LegitVPs, HijackedVPs, UnknownVPs int
}

// samePartition reports whether two samples carry the same VP partition
// (ignoring time) — the history coalescing criterion.
func (s Sample) samePartition(o Sample) bool {
	return s.LegitVPs == o.LegitVPs && s.HijackedVPs == o.HijackedVPs && s.UnknownVPs == o.UnknownVPs
}

// FractionLegit is the share of informed vantage points that route every
// probe to a legitimate origin.
func (s Sample) FractionLegit() float64 {
	informed := s.LegitVPs + s.HijackedVPs
	if informed == 0 {
		return 0
	}
	return float64(s.LegitVPs) / float64(informed)
}

// NewMonitor builds the monitoring service.
func NewMonitor(cfg *Config) *Monitor {
	m := &Monitor{cfg: cfg, vps: make(map[bgp.ASN]*vpState), ids: make(map[uint64]int32)}
	m.setProbes()
	return m
}

// setProbes rebuilds the probe set, its address order and empty chains
// for the current config.
func (m *Monitor) setProbes() {
	m.probes = probeAddrs(m.cfg.OwnedPrefixes)
	m.byAddr = make([]int, len(m.probes))
	for i := range m.byAddr {
		m.byAddr[i] = i
	}
	sort.Slice(m.byAddr, func(a, b int) bool {
		return m.probes[m.byAddr[a]].Less(m.probes[m.byAddr[b]])
	})
	m.chains = make([][]int32, len(m.probes))
}

// probeAddrs picks representative addresses inside the owned space: the
// first address of each /24 (v4) or /48 (v6) — the filtering granularities
// — capped at 8 per owned prefix, so sub-prefix hijacks of any slice are
// noticed. Larger owned blocks probe 8 evenly spaced sub-prefix starts.
func probeAddrs(owned []prefix.Prefix) []prefix.Addr {
	var out []prefix.Prefix // reuse Deaggregate; addresses extracted below
	for _, p := range owned {
		probeLen := 24
		if p.Is6() {
			probeLen = 48
		}
		bits := p.Bits()
		if bits > probeLen {
			out = append(out, p)
			continue
		}
		target := probeLen
		if target > bits+3 {
			target = bits + 3 // 8 evenly spaced sub-prefixes
		}
		subs, err := p.Deaggregate(target)
		if err != nil {
			out = append(out, p)
			continue
		}
		out = append(out, subs...)
	}
	addrs := make([]prefix.Addr, len(out))
	for i, s := range out {
		addrs[i] = s.Addr()
	}
	return addrs
}

// intern returns p's id, indexing p under the current config the first
// time it is seen.
func (m *Monitor) intern(p prefix.Prefix) int32 {
	h := prefix.FoldIdentity(fnvOffset, p)
	head, ok := m.ids[h]
	if !ok {
		head = -1
	}
	for id := head; id >= 0; id = m.pfxs[id].next {
		if m.pfxs[id].p == p {
			return id
		}
	}
	id := int32(len(m.pfxs))
	m.ids[h] = id
	m.pfxs = append(m.pfxs, interned{p: p, next: head})
	m.index(id)
	return id
}

// index records id's class and probe window under the current config,
// and places it on the chain of every probe it covers.
func (m *Monitor) index(id int32) {
	e := &m.pfxs[id]
	owned := m.cfg.OwnedPrefixes
	e.sub = !slices.Contains(owned, e.p) && slices.ContainsFunc(owned, func(o prefix.Prefix) bool { return o.Contains(e.p) })
	// Probes sort family-first (v4 before v6), so the [lo, hi] window of a
	// prefix only spans probes of its own family.
	lo, hi := e.p.Addr(), e.p.Last()
	e.lo = int32(sort.Search(len(m.byAddr), func(i int) bool { return m.probes[m.byAddr[i]].Compare(lo) >= 0 }))
	e.hi = int32(sort.Search(len(m.byAddr), func(i int) bool { return m.probes[m.byAddr[i]].Compare(hi) > 0 }))
	bits := e.p.Bits()
	for _, idx := range m.byAddr[e.lo:e.hi] {
		// Every id on a chain covers the probe, so lengths are distinct.
		chain := m.chains[idx]
		at := 0
		for at < len(chain) && m.pfxs[chain[at]].p.Bits() > bits {
			at++
		}
		m.chains[idx] = slices.Insert(chain, at, id)
	}
}

// match returns the VP's longest held prefix covering probe idx.
func (m *Monitor) match(st *vpState, idx int) (int32, bool) {
	for _, id := range m.chains[idx] {
		if int(id) < len(st.routes) && st.routes[id].held {
			return id, true
		}
	}
	return 0, false
}

// probeStatusLocked judges probe idx by Config.entryLegit on its match.
func (m *Monitor) probeStatusLocked(st *vpState, idx int) probeStatus {
	id, ok := m.match(st, idx)
	if !ok {
		return probeUnmatched
	}
	if e := &m.pfxs[id]; m.cfg.originLegit(st.routes[id].origin) && (!e.sub || m.cfg.Self.Has(e.p)) {
		return probeLegit
	}
	return probeBad
}

// SetConfig swaps the monitor to a new configuration snapshot: the probe
// set is rebuilt for the new owned space, every interned prefix is
// re-classed and re-placed on the new probes' chains, every vantage
// point's cached per-probe verdicts are recomputed from its (preserved)
// routing view, and the partition tallies are re-derived. If the
// partition changes — a VP hijacked only on a removed prefix becomes
// legit, a VP already routing a newly added prefix to an attacker becomes
// hijacked — the history gains a change-point at the latest folded event
// time. Called by the service's reconfiguration barrier, i.e. at a fixed
// serial position in the event stream.
func (m *Monitor) SetConfig(next *Config) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg = next
	m.setProbes()
	for id := range m.pfxs {
		m.index(int32(id))
	}
	m.tally = Sample{}
	for _, st := range m.vps {
		st.status = make([]probeStatus, len(m.probes))
		st.informed, st.bad = 0, 0
		for idx := range m.probes {
			st.setStatus(idx, m.probeStatusLocked(st, idx))
		}
		m.tallyAdd(st.verdict())
	}
	if len(m.history) > 0 {
		m.coalesceLocked(m.lastAt)
	}
}

// Start subscribes the monitor to the sources.
func (m *Monitor) Start(sources ...feedtypes.Source) {
	m.mu.Lock()
	filter := feedtypes.Filter{Prefixes: m.cfg.OwnedPrefixes, MoreSpecific: true, LessSpecific: true}
	m.mu.Unlock()
	for _, src := range sources {
		cancel := src.Subscribe(filter, m.Process)
		m.mu.Lock()
		m.cancels = append(m.cancels, cancel)
		m.mu.Unlock()
	}
}

// Stop detaches from all sources.
func (m *Monitor) Stop() {
	m.mu.Lock()
	cancels := m.cancels
	m.cancels = nil
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Process folds one feed event into the per-VP view. Exported for network
// clients that deliver events themselves.
func (m *Monitor) Process(ev feedtypes.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.processLocked(&ev)
}

// ProcessBatch folds a batch of feed events in order under one lock
// acquisition — the sink's fast path. Semantics are identical to calling
// Process per event.
func (m *Monitor) ProcessBatch(evs []feedtypes.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range evs {
		m.processLocked(&evs[i])
	}
}

func (m *Monitor) processLocked(ev *feedtypes.Event) {
	st := m.vps[ev.VantagePoint]
	if st == nil {
		st = &vpState{status: make([]probeStatus, len(m.probes))}
		m.vps[ev.VantagePoint] = st
		m.tally.UnknownVPs++ // a fresh VP has no routing information yet
	}
	id := m.intern(ev.Prefix)
	for len(st.seen) <= int(id) { // unseen: older than any SeenAt
		st.routes = append(st.routes, vpRoute{})
		st.seen = append(st.seen, math.MinInt64)
	}
	// Freshest observation wins across sources; a stale LG poll must not
	// roll back a newer streamed update.
	if ev.SeenAt < st.seen[id] {
		return
	}
	st.seen[id] = ev.SeenAt
	old := st.verdict()
	if ev.Kind == feedtypes.Withdraw {
		st.routes[id] = vpRoute{}
	} else if origin, ok := ev.Origin(); ok {
		st.routes[id] = vpRoute{origin: origin, held: true}
	} else {
		// Malformed announcement: no route change, no verdict change.
		m.coalesceLocked(ev.EmittedAt)
		return
	}
	e := &m.pfxs[id]
	for _, idx := range m.byAddr[e.lo:e.hi] {
		st.setStatus(idx, m.probeStatusLocked(st, idx))
	}
	if now := st.verdict(); now != old {
		m.tallySub(old)
		m.tallyAdd(now)
	}
	m.coalesceLocked(ev.EmittedAt)
}

// setStatus moves one probe's cached status, maintaining the informed/bad
// counts.
func (st *vpState) setStatus(idx int, now probeStatus) {
	was := st.status[idx]
	if was == now {
		return
	}
	if was != probeUnmatched {
		st.informed--
		if was == probeBad {
			st.bad--
		}
	}
	if now != probeUnmatched {
		st.informed++
		if now == probeBad {
			st.bad++
		}
	}
	st.status[idx] = now
}

func (m *Monitor) tallyAdd(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs++
	case vpLegit:
		m.tally.LegitVPs++
	default:
		m.tally.HijackedVPs++
	}
}

func (m *Monitor) tallySub(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs--
	case vpLegit:
		m.tally.LegitVPs--
	default:
		m.tally.HijackedVPs--
	}
}

// coalesceLocked appends a history sample only when the partition changed
// since the previous sample, so repeated events with an unchanged VP
// partition cost zero history growth (History is a change-point series).
func (m *Monitor) coalesceLocked(at time.Duration) {
	if at > m.lastAt {
		m.lastAt = at
	}
	s := m.tally
	s.Time = at
	if n := len(m.history); n > 0 && m.history[n-1].samePartition(s) {
		return
	}
	m.history = append(m.history, s)
}

// Snapshot returns the current partition of vantage points. It reads the
// incrementally maintained tallies: O(1).
func (m *Monitor) Snapshot(at time.Duration) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.tally
	s.Time = at
	return s
}

// Rescore recomputes the partition from scratch, without the chains or
// classes: each probe's longest match is brute-forced over the VP's held
// prefixes and judged by Config.entryLegit. It is the verification oracle
// for the incremental tallies (tests assert Rescore == Snapshot).
func (m *Monitor) Rescore(at time.Duration) Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Sample{Time: at}
	for _, st := range m.vps {
		informed, bad := 0, 0
		for _, addr := range m.probes {
			best := -1
			for id, r := range st.routes {
				p := m.pfxs[id].p
				if r.held && p.ContainsAddr(addr) && (best < 0 || p.Bits() > m.pfxs[best].p.Bits()) {
					best = id
				}
			}
			if best < 0 {
				continue
			}
			informed++
			if !m.cfg.entryLegit(m.pfxs[best].p, st.routes[best].origin) {
				bad++
			}
		}
		switch {
		case informed == 0:
			s.UnknownVPs++
		case bad > 0:
			s.HijackedVPs++
		default:
			s.LegitVPs++
		}
	}
	return s
}

// History returns the time series of partition change-points: one sample
// per event that changed the legit/hijacked/unknown partition (plus the
// initial sample). Events that leave the partition unchanged are
// coalesced into the preceding sample, so the series is bounded by the
// number of state transitions, not the feed volume. When the feed ran
// quietly past the last transition, a closing sample at the latest event
// time repeats the final partition, so time-axis consumers (vis.Timeline,
// E6 plots) keep spanning the whole observation window.
func (m *Monitor) History() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]Sample(nil), m.history...)
	if n := len(out); n > 0 && m.lastAt > out[n-1].Time {
		closing := m.tally
		closing.Time = m.lastAt
		out = append(out, closing)
	}
	return out
}

// VPOrigins reports, per vantage point, the origin AS serving each probe
// address — the data behind the demo's geographic visualization.
func (m *Monitor) VPOrigins() map[bgp.ASN][]bgp.ASN {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[bgp.ASN][]bgp.ASN, len(m.vps))
	for vp, st := range m.vps {
		origins := make([]bgp.ASN, len(m.probes))
		for idx := range m.probes {
			if id, ok := m.match(st, idx); ok {
				origins[idx] = st.routes[id].origin
			}
		}
		out[vp] = origins
	}
	return out
}

// VantagePoints lists the VPs the monitor has heard from, sorted.
func (m *Monitor) VantagePoints() []bgp.ASN {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bgp.ASN, 0, len(m.vps))
	for vp := range m.vps {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
