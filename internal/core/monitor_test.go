package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

func monEvent(vp bgp.ASN, p string, seen time.Duration, path ...bgp.ASN) feedtypes.Event {
	return feedtypes.Event{
		Source: "test", VantagePoint: vp, Kind: feedtypes.Announce,
		Prefix: prefix.MustParse(p), Path: path, SeenAt: seen, EmittedAt: seen,
	}
}

func TestMonitorTracksHijackAndRecovery(t *testing.T) {
	m := NewMonitor(testConfig()) // owns 10.0.0.0/23, legit 61000
	// Two VPs learn the legit route.
	m.Process(monEvent(1, "10.0.0.0/23", time.Second, 1, 61000))
	m.Process(monEvent(2, "10.0.0.0/23", time.Second, 2, 61000))
	s := m.Snapshot(time.Second)
	if s.LegitVPs != 2 || s.HijackedVPs != 0 {
		t.Fatalf("after legit: %+v", s)
	}
	// VP 2 flips to the attacker.
	m.Process(monEvent(2, "10.0.0.0/23", 2*time.Second, 2, 666))
	s = m.Snapshot(2 * time.Second)
	if s.LegitVPs != 1 || s.HijackedVPs != 1 {
		t.Fatalf("after hijack: %+v", s)
	}
	if got := s.FractionLegit(); got != 0.5 {
		t.Fatalf("FractionLegit = %v", got)
	}
	// Mitigation: VP 2 gets the two /24s back from the owner. The stale
	// /23 still points at the attacker but LPM prefers the /24s. The
	// mitigator registers its de-aggregations before announcing; an
	// unregistered more-specific with a legit origin would count as a
	// hidden hijack, not as recovery.
	m.cfg.Self = NewSelfAnnounced()
	m.cfg.Self.Add(prefix.MustParse("10.0.0.0/24"))
	m.cfg.Self.Add(prefix.MustParse("10.0.1.0/24"))
	m.Process(monEvent(2, "10.0.0.0/24", 3*time.Second, 2, 61000))
	m.Process(monEvent(2, "10.0.1.0/24", 3*time.Second, 2, 61000))
	s = m.Snapshot(3 * time.Second)
	if s.LegitVPs != 2 || s.HijackedVPs != 0 {
		t.Fatalf("after mitigation: %+v", s)
	}
}

func TestMonitorSubPrefixHijackPartial(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(1, "10.0.0.0/23", time.Second, 1, 61000))
	// Attacker takes only the low /24: VP is hijacked (one probe bad).
	m.Process(monEvent(1, "10.0.0.0/24", 2*time.Second, 1, 666))
	s := m.Snapshot(2 * time.Second)
	if s.HijackedVPs != 1 {
		t.Fatalf("sub-prefix hijack unnoticed: %+v", s)
	}
}

func TestMonitorStaleEventIgnored(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(1, "10.0.0.0/23", 5*time.Second, 1, 61000))
	// A slow looking glass reports the old attacker state with an older
	// SeenAt; it must not roll the view back.
	m.Process(monEvent(1, "10.0.0.0/23", 2*time.Second, 1, 666))
	s := m.Snapshot(5 * time.Second)
	if s.LegitVPs != 1 || s.HijackedVPs != 0 {
		t.Fatalf("stale event applied: %+v", s)
	}
}

func TestMonitorWithdrawalMakesUnknown(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(1, "10.0.0.0/23", time.Second, 1, 61000))
	w := feedtypes.Event{
		Source: "test", VantagePoint: 1, Kind: feedtypes.Withdraw,
		Prefix: prefix.MustParse("10.0.0.0/23"), SeenAt: 2 * time.Second, EmittedAt: 2 * time.Second,
	}
	m.Process(w)
	s := m.Snapshot(2 * time.Second)
	if s.UnknownVPs != 1 || s.LegitVPs != 0 {
		t.Fatalf("after withdraw: %+v", s)
	}
}

func TestMonitorHistoryGrows(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(1, "10.0.0.0/23", time.Second, 1, 61000))
	m.Process(monEvent(2, "10.0.0.0/23", 2*time.Second, 2, 666))
	h := m.History()
	if len(h) != 2 {
		t.Fatalf("history = %+v", h)
	}
	if h[0].Time != time.Second || h[1].Time != 2*time.Second {
		t.Fatalf("history times = %+v", h)
	}
}

// TestMonitorHistoryCoalesced: events that leave the VP partition
// unchanged must not append samples — History is a change-point series,
// bounded by state transitions rather than feed volume.
func TestMonitorHistoryCoalesced(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(1, "10.0.0.0/23", time.Second, 1, 61000))
	// 100 re-announcements of the same legit route: partition unchanged,
	// so history holds the change-point plus one closing sample at the
	// latest event time (keeping time-axis plots spanning the quiet tail).
	for i := 0; i < 100; i++ {
		m.Process(monEvent(1, "10.0.0.0/23", time.Duration(i+2)*time.Second, 1, 61000))
	}
	h := m.History()
	if len(h) != 2 {
		t.Fatalf("history grew to %d samples for an unchanged partition", len(h))
	}
	if h[1].Time != 101*time.Second || !h[1].samePartition(h[0]) {
		t.Fatalf("closing sample = %+v", h[1])
	}
	// A real transition appends exactly one more change-point (and, being
	// the latest event, needs no separate closing sample).
	m.Process(monEvent(1, "10.0.0.0/24", 200*time.Second, 1, 666))
	h = m.History()
	if len(h) != 2 || h[1].HijackedVPs != 1 || h[1].Time != 200*time.Second {
		t.Fatalf("history = %+v", h)
	}
}

// TestMonitorIncrementalMatchesRescore streams a randomized event mix and
// checks, at every step, that the incrementally maintained tallies equal
// the from-scratch Rescore fold — the invariant the O(1)-amortized sink
// rests on.
func TestMonitorIncrementalMatchesRescore(t *testing.T) {
	cfg := &Config{
		OwnedPrefixes: []prefix.Prefix{
			prefix.MustParse("10.0.0.0/22"),
			prefix.MustParse("192.0.2.0/24"),
		},
		LegitOrigins: []bgp.ASN{61000, 61001},
	}
	m := NewMonitor(cfg)
	rng := rand.New(rand.NewSource(7))
	prefixes := []string{
		"10.0.0.0/22", "10.0.0.0/23", "10.0.2.0/23", "10.0.1.0/24",
		"10.0.3.0/24", "10.0.0.0/16", "192.0.2.0/24", "192.0.2.128/25",
		"192.0.0.0/20",
	}
	origins := []bgp.ASN{61000, 61001, 666, 667}
	for i := 0; i < 2000; i++ {
		vp := bgp.ASN(1 + rng.Intn(12))
		ev := monEvent(vp, prefixes[rng.Intn(len(prefixes))],
			time.Duration(rng.Intn(500))*time.Second, vp, origins[rng.Intn(len(origins))])
		if rng.Intn(5) == 0 {
			ev.Kind = feedtypes.Withdraw
			ev.Path = nil
		}
		m.Process(ev)
		at := time.Duration(i) * time.Second
		got, want := m.Snapshot(at), m.Rescore(at)
		if got != want {
			t.Fatalf("step %d: incremental %+v != rescore %+v", i, got, want)
		}
	}
}

func TestMonitorVPOriginsAndList(t *testing.T) {
	m := NewMonitor(testConfig())
	m.Process(monEvent(7, "10.0.0.0/23", time.Second, 7, 61000))
	m.Process(monEvent(3, "10.0.0.0/24", time.Second, 3, 666))
	vps := m.VantagePoints()
	if len(vps) != 2 || vps[0] != 3 || vps[1] != 7 {
		t.Fatalf("VPs = %v", vps)
	}
	origins := m.VPOrigins()
	// Owned /23 probes at 10.0.0.0 and 10.0.1.0.
	if got := origins[7]; got[0] != 61000 || got[1] != 61000 {
		t.Fatalf("vp7 origins = %v", got)
	}
	if got := origins[3]; got[0] != 666 || got[1] != 0 {
		t.Fatalf("vp3 origins = %v", got)
	}
}

func TestProbeAddrs(t *testing.T) {
	probes := probeAddrs([]prefix.Prefix{prefix.MustParse("10.0.0.0/23")})
	if len(probes) != 2 || probes[0] != prefix.MustParseAddr("10.0.0.0") || probes[1] != prefix.MustParseAddr("10.0.1.0") {
		t.Fatalf("probes = %v", probes)
	}
	// A /25 owned prefix probes just itself.
	cfg := &Config{MaxDeaggregationLen: 25}
	_ = cfg
	probes = probeAddrs([]prefix.Prefix{prefix.MustParse("10.0.0.128/25")})
	if len(probes) != 1 || probes[0] != prefix.MustParseAddr("10.0.0.128") {
		t.Fatalf("/25 probes = %v", probes)
	}
	// A huge block caps at 8 probes.
	probes = probeAddrs([]prefix.Prefix{prefix.MustParse("10.0.0.0/8")})
	if len(probes) != 8 {
		t.Fatalf("/8 probes = %d", len(probes))
	}
}

// refMonitor is the trie-based fold the shared prefix index replaced,
// kept verbatim (minus locking and feed subscription) as the reference
// model: each VP holds its own binary trie of announced prefixes and a
// per-prefix last-seen map, and every probe's verdict is a trie
// longest-prefix match.
type refMonitor struct {
	cfg     *Config
	vps     map[bgp.ASN]*refVPState
	history []Sample
	probes  []prefix.Addr
	byAddr  []int
	tally   Sample
	lastAt  time.Duration
}

type refVPState struct {
	entries  *prefix.Trie[refEntry]
	last     map[prefix.Prefix]time.Duration
	status   []probeStatus
	informed int
	bad      int
}

func (st *refVPState) verdict() vpVerdictKind {
	switch {
	case st.informed == 0:
		return vpUnknown
	case st.bad > 0:
		return vpHijacked
	default:
		return vpLegit
	}
}

type refEntry struct {
	origin bgp.ASN
}

func newRefMonitor(cfg *Config) *refMonitor {
	m := &refMonitor{cfg: cfg, vps: make(map[bgp.ASN]*refVPState)}
	m.probes = probeAddrs(cfg.OwnedPrefixes)
	m.byAddr = make([]int, len(m.probes))
	for i := range m.byAddr {
		m.byAddr[i] = i
	}
	sort.Slice(m.byAddr, func(a, b int) bool {
		return m.probes[m.byAddr[a]].Less(m.probes[m.byAddr[b]])
	})
	return m
}

func (m *refMonitor) SetConfig(next *Config) {
	m.cfg = next
	m.probes = probeAddrs(next.OwnedPrefixes)
	m.byAddr = make([]int, len(m.probes))
	for i := range m.byAddr {
		m.byAddr[i] = i
	}
	sort.Slice(m.byAddr, func(a, b int) bool {
		return m.probes[m.byAddr[a]].Less(m.probes[m.byAddr[b]])
	})
	m.tally = Sample{}
	for _, st := range m.vps {
		st.status = make([]probeStatus, len(m.probes))
		st.informed, st.bad = 0, 0
		for idx, addr := range m.probes {
			if pfx, e, ok := st.entries.LongestMatch(addr); ok {
				st.informed++
				if m.cfg.entryLegit(pfx, e.origin) {
					st.status[idx] = probeLegit
				} else {
					st.status[idx] = probeBad
					st.bad++
				}
			}
		}
		m.tallyAdd(st.verdict())
	}
	if len(m.history) > 0 {
		m.coalesce(m.lastAt)
	}
}

func (m *refMonitor) Process(ev feedtypes.Event) {
	st := m.vps[ev.VantagePoint]
	if st == nil {
		st = &refVPState{
			entries: prefix.NewTrie[refEntry](),
			last:    make(map[prefix.Prefix]time.Duration),
			status:  make([]probeStatus, len(m.probes)),
		}
		m.vps[ev.VantagePoint] = st
		m.tally.UnknownVPs++
	}
	if last, ok := st.last[ev.Prefix]; ok && ev.SeenAt < last {
		return
	}
	st.last[ev.Prefix] = ev.SeenAt
	old := st.verdict()
	if ev.Kind == feedtypes.Withdraw {
		st.entries.Delete(ev.Prefix)
	} else if origin, ok := ev.Origin(); ok {
		st.entries.Insert(ev.Prefix, refEntry{origin: origin})
	} else {
		m.coalesce(ev.EmittedAt)
		return
	}
	m.rescoreProbes(st, ev.Prefix)
	if now := st.verdict(); now != old {
		m.tallySub(old)
		m.tallyAdd(now)
	}
	m.coalesce(ev.EmittedAt)
}

func (m *refMonitor) rescoreProbes(st *refVPState, p prefix.Prefix) {
	lo, hi := p.Addr(), p.Last()
	i := sort.Search(len(m.byAddr), func(i int) bool { return m.probes[m.byAddr[i]].Compare(lo) >= 0 })
	for ; i < len(m.byAddr) && m.probes[m.byAddr[i]].Compare(hi) <= 0; i++ {
		idx := m.byAddr[i]
		var now probeStatus
		if pfx, e, ok := st.entries.LongestMatch(m.probes[idx]); ok {
			if m.cfg.entryLegit(pfx, e.origin) {
				now = probeLegit
			} else {
				now = probeBad
			}
		}
		was := st.status[idx]
		if was == now {
			continue
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
}

func (m *refMonitor) tallyAdd(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs++
	case vpLegit:
		m.tally.LegitVPs++
	default:
		m.tally.HijackedVPs++
	}
}

func (m *refMonitor) tallySub(v vpVerdictKind) {
	switch v {
	case vpUnknown:
		m.tally.UnknownVPs--
	case vpLegit:
		m.tally.LegitVPs--
	default:
		m.tally.HijackedVPs--
	}
}

func (m *refMonitor) coalesce(at time.Duration) {
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

func (m *refMonitor) Snapshot(at time.Duration) Sample {
	s := m.tally
	s.Time = at
	return s
}

func (m *refMonitor) Rescore(at time.Duration) Sample {
	s := Sample{Time: at}
	for _, st := range m.vps {
		informed, bad := 0, 0
		for _, addr := range m.probes {
			pfx, e, ok := st.entries.LongestMatch(addr)
			if !ok {
				continue
			}
			informed++
			if !m.cfg.entryLegit(pfx, e.origin) {
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

func (m *refMonitor) History() []Sample {
	out := append([]Sample(nil), m.history...)
	if n := len(out); n > 0 && m.lastAt > out[n-1].Time {
		closing := m.tally
		closing.Time = m.lastAt
		out = append(out, closing)
	}
	return out
}

func (m *refMonitor) VPOrigins() map[bgp.ASN][]bgp.ASN {
	out := make(map[bgp.ASN][]bgp.ASN, len(m.vps))
	for vp, st := range m.vps {
		origins := make([]bgp.ASN, 0, len(m.probes))
		for _, addr := range m.probes {
			if _, e, ok := st.entries.LongestMatch(addr); ok {
				origins = append(origins, e.origin)
			} else {
				origins = append(origins, 0)
			}
		}
		out[vp] = origins
	}
	return out
}

func (m *refMonitor) VantagePoints() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(m.vps))
	for vp := range m.vps {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMonitorMatchesReferenceModel drives the monitor and the trie-based
// reference with the same randomized stream — v4 and v6, nested owned
// prefixes (one owned prefix inside another), sub-prefix and covering
// announcements, withdrawals of held and unheld prefixes, out-of-order
// SeenAt, malformed announcements, Self registrations between events, and
// SetConfig adding and removing owned prefixes mid-stream — and requires
// every observable to agree.
func TestMonitorMatchesReferenceModel(t *testing.T) {
	ps := func(ss ...string) []prefix.Prefix {
		out := make([]prefix.Prefix, len(ss))
		for i, s := range ss {
			out[i] = prefix.MustParse(s)
		}
		return out
	}
	ownedSets := [][]prefix.Prefix{
		ps("10.0.0.0/22", "10.0.1.0/24", "192.0.2.0/25", "2001:db8::/46", "2001:db8:1::/48"),
		ps("10.0.0.0/23", "10.0.2.0/24", "2001:db8::/47", "2001:db8:2::/48", "2001:db8:2::/56"),
		ps("10.0.0.0/16", "10.0.0.0/22", "192.0.2.0/24", "2001:db8::/32"),
	}
	announced := ps(
		"10.0.0.0/22", "10.0.1.0/24", "10.0.0.0/23", "10.0.2.0/23", "10.0.0.0/24",
		"10.0.1.128/25", "10.0.3.0/24", "10.0.0.0/16", "10.0.0.0/8", "0.0.0.0/0",
		"10.0.2.0/24", "192.0.2.0/24", "192.0.2.0/25", "192.0.2.64/26", "192.0.0.0/20",
		"172.16.0.0/12", "2001:db8::/46", "2001:db8:1::/48", "2001:db8::/32",
		"2001:db8:1:8000::/49", "2001:db8:2::/48", "2001:db8:2::/56", "2001:db8::/47",
		"::/0", "2400:cb00::/32",
	)
	origins := []bgp.ASN{61000, 61001, 666, 667}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := NewSelfAnnounced()
		mkCfg := func(owned []prefix.Prefix) *Config {
			return &Config{OwnedPrefixes: owned, LegitOrigins: []bgp.ASN{61000, 61001}, Self: self}
		}
		cfg := mkCfg(ownedSets[0])
		m, ref := NewMonitor(cfg), newRefMonitor(cfg)
		check := func(step int, full bool) {
			t.Helper()
			at := time.Duration(step) * time.Second
			if got, want := m.Snapshot(at), ref.Snapshot(at); got != want {
				t.Fatalf("seed %d step %d: Snapshot %+v, reference %+v", seed, step, got, want)
			}
			if !full {
				return
			}
			if got, want := m.Rescore(at), ref.Rescore(at); got != want {
				t.Fatalf("seed %d step %d: Rescore %+v, reference %+v", seed, step, got, want)
			}
			if got, want := m.History(), ref.History(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: History\n%+v\nreference\n%+v", seed, step, got, want)
			}
			if got, want := m.VPOrigins(), ref.VPOrigins(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: VPOrigins %v, reference %v", seed, step, got, want)
			}
			if got, want := m.VantagePoints(), ref.VantagePoints(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: VantagePoints %v, reference %v", seed, step, got, want)
			}
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 3: // register or forget a self-announcement
				p := announced[rng.Intn(len(announced))]
				if rng.Intn(2) == 0 {
					self.Add(p)
				} else {
					self.Remove(p)
				}
			case r < 4: // reconfigure: owned prefixes come and go
				owned := append([]prefix.Prefix(nil), ownedSets[rng.Intn(len(ownedSets))]...)
				if rng.Intn(2) == 0 {
					owned = owned[:1+rng.Intn(len(owned))]
				}
				cfg = mkCfg(owned)
				m.SetConfig(cfg)
				ref.SetConfig(cfg)
			default:
				vp := bgp.ASN(1 + rng.Intn(10))
				// SeenAt mostly advances but often lags: stale drops happen.
				seen := time.Duration(step-rng.Intn(40)) * time.Second
				ev := monEvent(vp, announced[rng.Intn(len(announced))].String(), seen, vp, 2000, origins[rng.Intn(len(origins))])
				ev.EmittedAt = time.Duration(step) * time.Second
				switch k := rng.Intn(10); {
				case k < 2:
					ev.Kind, ev.Path = feedtypes.Withdraw, nil
				case k < 3:
					ev.Path = nil // malformed: an announcement without a path
				}
				m.Process(ev)
				ref.Process(ev)
			}
			check(step, step%50 == 0)
		}
		check(3000, true)
	}
}
