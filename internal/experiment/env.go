// Package experiment assembles full ARTEMIS testbeds — topology, simulated
// Internet, monitoring feeds, controller, the ARTEMIS service itself — and
// runs the paper's §3 protocol (setup → hijack+detection → mitigation) as
// repeatable trials. Each table/figure of the paper maps to one exported
// experiment function here (see DESIGN.md's experiment index).
package experiment

import (
	"fmt"
	"sort"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/core"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/periscope"
	"artemis/internal/feeds/ris"
	"artemis/internal/hijack"
	"artemis/internal/ingest"
	"artemis/internal/peering"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

// Source names accepted in Options.Sources.
const (
	SrcRIS       = ris.SourceName
	SrcBGPmon    = bgpmon.SourceName
	SrcPeriscope = periscope.SourceName
)

// LG selection strategies for the Periscope arsenal (experiment E3).
const (
	SelectRandom = "random"
	SelectDegree = "degree"
	SelectGeo    = "geo"
)

// Options parameterizes one testbed.
type Options struct {
	Seed int64
	// Topo is the synthetic Internet (zero → topo.DefaultGenConfig with
	// Seed).
	Topo topo.GenConfig
	// Net is the protocol config (zero values → simnet defaults: MRAI
	// 30s, /24 ingress filtering).
	Net simnet.Config
	// Owned is the victim's prefix (default 10.0.0.0/23, the paper's
	// shape). It is the prefix the configured attack targets.
	Owned prefix.Prefix
	// OwnedSet lists every prefix the victim originates, enabling
	// multi-prefix and mixed v4/v6 deployments. Empty means just Owned;
	// when set it must contain Owned (Build validates). All of them are
	// announced in phase 1, monitored by every feed, and listed as
	// OwnedPrefixes in the ARTEMIS config.
	OwnedSet []prefix.Prefix
	// Kind is the attack scenario (default exact-origin, §3).
	Kind hijack.Kind
	// Sources enables monitoring feeds by name; nil enables all three.
	Sources []string

	// Partner attaches a second legitimate origin (PartnerASN) at two
	// additional stub muxes and lists it in LegitOrigins — the
	// legitimate-MOAS scenarios announce Owned from it and ARTEMIS must
	// stay silent. Requires a topology with at least 6 stubs.
	Partner bool
	// UpstreamPolicy pins each legitimate origin's allowed first-hops to
	// its actual mux ASes (core.Config.AllowedUpstreams), enabling Type-1
	// path-anomaly detection in trials.
	UpstreamPolicy bool
	// SplitCoverage assigns each feed source a disjoint slice of the
	// owned set (round-robin by prefix) instead of every source watching
	// everything, and enables ingest auto-widening — the coverage-hole
	// experiments kill one source and assert the survivors take over its
	// slice. Sources left without a slice watch the full set.
	SplitCoverage bool
	// DeliverTee, when set, observes every deduplicated batch on its way
	// into the pipeline (the fleet's replay recorder hooks here). It runs
	// inline on the delivery path and must not block.
	DeliverTee func([]feedtypes.Event)

	// Feed shape. Zero values select the defaults noted.
	RISCollectors, RISPeers int           // 3 collectors x 3 peers
	RISBatch                time.Duration // ris.DefaultBatchDelay
	BGPmonPeers             int           // 5
	BGPmonMin, BGPmonMax    time.Duration // bgpmon defaults (20-60s)
	LGCount                 int           // 8
	LGPoll                  time.Duration // 3 minutes
	LGStrategy              string        // SelectRandom

	// ControllerDelay is the configuration latency (default 15s, §3).
	ControllerDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.Topo.Tier1 == 0 {
		o.Topo = topo.DefaultGenConfig()
		// Trials regenerate the Internet per seed so attacker/victim
		// placement varies, like different PEERING site pairs.
		o.Topo.Seed = o.Seed
	}
	if o.Owned == (prefix.Prefix{}) {
		if len(o.OwnedSet) > 0 {
			o.Owned = o.OwnedSet[0]
		} else {
			o.Owned = prefix.MustParse("10.0.0.0/23")
		}
	}
	if len(o.OwnedSet) == 0 {
		o.OwnedSet = []prefix.Prefix{o.Owned}
	}
	if o.Sources == nil {
		o.Sources = []string{SrcRIS, SrcBGPmon, SrcPeriscope}
	}
	if o.RISCollectors == 0 {
		o.RISCollectors = 3
	}
	if o.RISPeers == 0 {
		o.RISPeers = 3
	}
	if o.BGPmonPeers == 0 {
		o.BGPmonPeers = 5
	}
	if o.LGCount == 0 {
		o.LGCount = 8
	}
	if o.LGPoll == 0 {
		o.LGPoll = 3 * time.Minute
	}
	if o.LGStrategy == "" {
		o.LGStrategy = SelectRandom
	}
	if o.ControllerDelay == 0 {
		o.ControllerDelay = controller.DefaultConfigDelay
	}
	return o
}

// VictimASN and AttackerASN are the virtual ASes' numbers, PEERING-style.
// PartnerASN is the victim's sibling origin for legitimate-MOAS scenarios
// (an anycast partner or a sibling AS of the same organization).
const (
	VictimASN   bgp.ASN = 61000
	PartnerASN  bgp.ASN = 61001
	AttackerASN bgp.ASN = 64666
)

// Env is a fully assembled testbed.
type Env struct {
	Opts     Options
	Topo     *topo.Topology
	Engine   *sim.Engine
	Net      *simnet.Network
	Victim   *peering.VirtualAS
	Attacker *peering.VirtualAS
	// Partner is the second legitimate origin; nil unless Options.Partner.
	Partner *peering.VirtualAS
	Ctrl    *controller.Controller
	Artemis *core.Service
	// Pipeline is the detection data path the trials run against; it
	// feeds both the detector and the monitor. Ingest delivers with
	// SubmitWait, which keeps virtual-time semantics: a feed's publish
	// returns only once its consequences (alerts, mitigation scheduling)
	// are in place.
	Pipeline *core.Pipeline
	// Ingest is the supervised fan-in tier between the feeds and the
	// pipeline: cross-source dedup (the same route change seen by
	// overlapping vantage points via several feeds is classified once,
	// first delivery wins) and per-source accounting. Synchronous like
	// the pipeline, so virtual-time semantics hold end to end.
	Ingest *ingest.Supervisor

	RIS       *ris.Service
	BGPmon    *bgpmon.Service
	Periscope *periscope.Service
	Sources   []feedtypes.Source

	// MonitoredVPs is the union of feed vantage points.
	MonitoredVPs []bgp.ASN
	// SourceIDs maps feed name → supervised source id, for scripted
	// lifecycle events (killing a source mid-trial).
	SourceIDs map[string]ingest.SourceID

	track *captureTracker
}

// LeakerASN picks the route-leak offender: the first transit AS, which
// sits on many propagation paths. Deterministic per topology.
func (env *Env) LeakerASN() bgp.ASN {
	return topo.FirstASN + bgp.ASN(env.Opts.Topo.Tier1)
}

// Build assembles the testbed. Nothing has been announced yet.
func Build(opts Options) (*Env, error) {
	opts = opts.withDefaults()
	tp, err := topo.Generate(opts.Topo)
	if err != nil {
		return nil, err
	}
	ownedOK := false
	for _, p := range opts.OwnedSet {
		if p == opts.Owned {
			ownedOK = true
			break
		}
	}
	if !ownedOK {
		return nil, fmt.Errorf("experiment: Owned %v not in OwnedSet %v", opts.Owned, opts.OwnedSet)
	}
	eng := sim.NewEngine(opts.Seed)
	rng := eng.Rand()

	stubStart := opts.Topo.Tier1 + opts.Topo.Transit
	stubs := make([]bgp.ASN, 0, opts.Topo.Stubs)
	for i := stubStart; i < tp.Len(); i++ {
		stubs = append(stubs, topo.FirstASN+bgp.ASN(i))
	}
	need := 4
	if opts.Partner {
		need = 6
	}
	if len(stubs) < need {
		return nil, fmt.Errorf("experiment: need at least %d stubs for mux placement", need)
	}
	perm := rng.Perm(len(stubs))
	victimMuxes := []bgp.ASN{stubs[perm[0]], stubs[perm[1]]}
	attackerMuxes := []bgp.ASN{stubs[perm[2]], stubs[perm[3]]}

	victim, err := peering.Attach(tp, VictimASN, victimMuxes, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	attacker, err := peering.Attach(tp, AttackerASN, attackerMuxes, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	var partner *peering.VirtualAS
	var partnerMuxes []bgp.ASN
	if opts.Partner {
		partnerMuxes = []bgp.ASN{stubs[perm[4]], stubs[perm[5]]}
		partner, err = peering.Attach(tp, PartnerASN, partnerMuxes, 5*time.Millisecond)
		if err != nil {
			return nil, err
		}
	}

	nw := simnet.New(tp, eng, opts.Net)
	env := &Env{
		Opts: opts, Topo: tp, Engine: eng, Net: nw,
		Victim: victim, Attacker: attacker, Partner: partner,
	}

	// Vantage points come from the transit tier, like real collectors and
	// looking glasses, which overwhelmingly sit in transit networks.
	transit := make([]bgp.ASN, 0, opts.Topo.Transit)
	for i := opts.Topo.Tier1; i < stubStart; i++ {
		transit = append(transit, topo.FirstASN+bgp.ASN(i))
	}
	vpSet := map[bgp.ASN]bool{}
	pick := func(n int) []bgp.ASN {
		out := make([]bgp.ASN, 0, n)
		idx := rng.Perm(len(transit))
		for _, j := range idx {
			if len(out) == n {
				break
			}
			out = append(out, transit[j])
		}
		return out
	}

	enabled := map[string]bool{}
	for _, s := range opts.Sources {
		enabled[s] = true
	}
	if enabled[SrcRIS] {
		var ccfgs []ris.CollectorConfig
		for c := 0; c < opts.RISCollectors; c++ {
			peers := pick(opts.RISPeers)
			for _, p := range peers {
				vpSet[p] = true
			}
			ccfgs = append(ccfgs, ris.CollectorConfig{
				Name: fmt.Sprintf("rrc%02d", c), Peers: peers, BatchDelay: opts.RISBatch,
			})
		}
		env.RIS = ris.New(nw, ccfgs)
		env.Sources = append(env.Sources, env.RIS)
	}
	if enabled[SrcBGPmon] {
		peers := pick(opts.BGPmonPeers)
		for _, p := range peers {
			vpSet[p] = true
		}
		env.BGPmon = bgpmon.New(nw, bgpmon.Config{
			Peers: peers, MinDelay: opts.BGPmonMin, MaxDelay: opts.BGPmonMax,
		})
		env.Sources = append(env.Sources, env.BGPmon)
	}
	if enabled[SrcPeriscope] {
		lgs := selectLGs(tp, transit, opts.LGCount, opts.LGStrategy, rng.Int63())
		for _, p := range lgs {
			vpSet[p] = true
		}
		env.Periscope, err = periscope.New(nw, periscope.Config{
			LGs:          lgs,
			Prefixes:     opts.OwnedSet,
			PollInterval: opts.LGPoll,
		})
		if err != nil {
			return nil, err
		}
		env.Sources = append(env.Sources, env.Periscope)
	}
	for vp := range vpSet {
		env.MonitoredVPs = append(env.MonitoredVPs, vp)
	}
	sort.Slice(env.MonitoredVPs, func(i, j int) bool { return env.MonitoredVPs[i] < env.MonitoredVPs[j] })

	env.Ctrl = controller.NewSim(nw, victim.Bind(nw), controller.WithConfigDelay(opts.ControllerDelay))
	coreCfg := &core.Config{
		OwnedPrefixes: append([]prefix.Prefix(nil), opts.OwnedSet...),
		LegitOrigins:  []bgp.ASN{VictimASN},
	}
	if opts.Partner {
		coreCfg.LegitOrigins = append(coreCfg.LegitOrigins, PartnerASN)
	}
	if opts.UpstreamPolicy {
		coreCfg.AllowedUpstreams = map[bgp.ASN][]bgp.ASN{
			VictimASN: append([]bgp.ASN(nil), victimMuxes...),
		}
		if opts.Partner {
			coreCfg.AllowedUpstreams[PartnerASN] = append([]bgp.ASN(nil), partnerMuxes...)
		}
	}
	env.Artemis, err = core.NewService(coreCfg, env.Ctrl, eng.Now)
	if err != nil {
		return nil, err
	}
	env.Pipeline = core.NewPipeline(env.Artemis.Detector, env.Artemis.Monitor, core.PipelineConfig{})
	// Route config swaps through the pipeline barrier, so a mid-incident
	// Reconfigure lands at a well-defined serial position in the stream.
	env.Artemis.BindPipeline(env.Pipeline)
	deliver := env.Pipeline.SubmitWait
	if opts.DeliverTee != nil {
		tee, inner := opts.DeliverTee, deliver
		deliver = func(batch []feedtypes.Event) {
			tee(batch)
			inner(batch)
		}
	}
	env.Ingest = ingest.New(deliver, ingest.Config{
		Synchronous: true,
		Seed:        opts.Seed,
		AutoWiden:   opts.SplitCoverage,
	})
	env.SourceIDs = make(map[string]ingest.SourceID, len(env.Sources))
	for i, src := range env.Sources {
		f := feedtypes.Filter{
			Prefixes:     opts.OwnedSet,
			MoreSpecific: true,
			LessSpecific: true,
		}
		if opts.SplitCoverage && len(env.Sources) > 1 {
			// Round-robin: prefix j belongs to source j mod N. A source
			// left empty-handed keeps the full set (an empty filter would
			// match everything, the opposite of a narrow slice).
			var mine []prefix.Prefix
			for j, p := range opts.OwnedSet {
				if j%len(env.Sources) == i {
					mine = append(mine, p)
				}
			}
			if len(mine) > 0 {
				f.Prefixes = mine
			}
		}
		env.SourceIDs[src.Name()] = env.Ingest.AddSource(src.Name(), src, f)
	}
	env.track = newCaptureTracker(env)
	return env, nil
}

// Close releases the testbed's concurrent machinery (ingest supervisor,
// pipeline workers, sink, and the service's mitigation queue). The Env's
// state remains readable. Safe to call more than once.
func (env *Env) Close() {
	if env.Ingest != nil {
		env.Ingest.Close()
	}
	if env.Pipeline != nil {
		env.Pipeline.Close()
	}
	if env.Artemis != nil {
		env.Artemis.Close()
	}
}

// selectLGs implements the E3 arsenal-selection strategies.
func selectLGs(tp *topo.Topology, pool []bgp.ASN, n int, strategy string, seed int64) []bgp.ASN {
	if n >= len(pool) {
		return append([]bgp.ASN(nil), pool...)
	}
	switch strategy {
	case SelectDegree:
		// Highest customer-cone transit ASes see route changes first.
		sorted := append([]bgp.ASN(nil), pool...)
		sort.Slice(sorted, func(i, j int) bool {
			ci, cj := tp.CustomerConeSize(sorted[i]), tp.CustomerConeSize(sorted[j])
			if ci != cj {
				return ci > cj
			}
			return sorted[i] < sorted[j]
		})
		return sorted[:n]
	case SelectGeo:
		// One LG per region round-robin, maximizing geographic spread.
		byRegion := map[string][]bgp.ASN{}
		var regions []string
		for _, asn := range pool {
			g, _ := tp.Geo(asn)
			if len(byRegion[g.Region]) == 0 {
				regions = append(regions, g.Region)
			}
			byRegion[g.Region] = append(byRegion[g.Region], asn)
		}
		sort.Strings(regions)
		var out []bgp.ASN
		for len(out) < n {
			progressed := false
			for _, r := range regions {
				if len(out) == n {
					break
				}
				if len(byRegion[r]) > 0 {
					out = append(out, byRegion[r][0])
					byRegion[r] = byRegion[r][1:]
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		return out
	default: // SelectRandom
		rng := sim.NewEngine(seed).Rand()
		idx := rng.Perm(len(pool))[:n]
		out := make([]bgp.ASN, n)
		for i, j := range idx {
			out[i] = pool[j]
		}
		return out
	}
}
