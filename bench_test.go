// Benchmarks regenerating every quantitative result of the paper
// (experiments E1–E6, see DESIGN.md) plus ablations of the design choices.
// Each experiment bench runs full simulated trials per iteration and
// reports the measured simulated latencies as custom metrics, so
// `go test -bench=. -benchmem` reproduces the paper's numbers alongside
// the harness's own computational cost.
package artemis_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/core"
	"artemis/internal/experiment"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func benchOpts(seed int64) experiment.Options {
	cfg := topo.DefaultGenConfig()
	cfg.Stubs = 150
	cfg.Transit = 40
	cfg.Seed = seed
	return experiment.Options{Seed: seed, Topo: cfg}
}

// metric is one figure a paper-experiment benchmark reports.
type metric struct {
	v    float64
	unit string
}

// paperExperiment is one arm of the paper's experiments E1–E6: run
// executes n seeded trials and returns the figures the benchmark reports.
// The E1–E6 benchmarks and the behaviour golden (golden_test.go) share
// these definitions, so the golden checks what the benchmarks print.
type paperExperiment struct {
	name string // the benchmark's name without "Benchmark"
	run  func(n int) ([]metric, error)
}

func runTrial(opts experiment.Options) (experiment.Trial, error) {
	env, err := experiment.Build(opts)
	if err != nil {
		return experiment.Trial{}, err
	}
	defer env.Close()
	return experiment.RunTrial(env)
}

// detectionMetrics reports the share of n trials detected and, when any
// was, their mean detection delay (det summed over the detected ones).
func detectionMetrics(det time.Duration, detected, n int) []metric {
	ms := []metric{{float64(detected) / float64(n), "coverage"}}
	if detected > 0 {
		ms = append(ms, metric{det.Seconds() / float64(detected), "detect-s"})
	}
	return ms
}

func paperExperiments() []paperExperiment {
	// E1 reproduces §3's headline timeline: detection ≈45s, trigger ≈15s,
	// mitigation ≤5min, total ≈6min.
	exps := []paperExperiment{{"E1_EndToEnd", func(n int) ([]metric, error) {
		var det, trig, mit, tot time.Duration
		detected := 0
		for i := 0; i < n; i++ {
			tr, err := runTrial(benchOpts(int64(i + 1)))
			if err != nil {
				return nil, err
			}
			if !tr.Detected {
				continue
			}
			det += tr.DetectionDelay
			trig += tr.TriggerDelay
			mit += tr.MitigationDelay
			tot += tr.Total
			detected++
		}
		if detected == 0 {
			return nil, nil
		}
		k := float64(detected)
		return []metric{{det.Seconds() / k, "detect-s"}, {trig.Seconds() / k, "trigger-s"},
			{mit.Seconds() / k, "mitigate-s"}, {tot.Seconds() / k, "total-s"}}, nil
	}}}
	// E2 reproduces §2's min-of-sources claim.
	for _, src := range []string{experiment.SrcRIS, experiment.SrcBGPmon, experiment.SrcPeriscope, "combined"} {
		exps = append(exps, paperExperiment{"E2_PerSourceDetection/" + src, func(n int) ([]metric, error) {
			var det time.Duration
			detected := 0
			for i := 0; i < n; i++ {
				opts := benchOpts(int64(i + 100))
				if src != "combined" {
					opts.Sources = []string{src}
				}
				tr, err := runTrial(opts)
				if err != nil {
					return nil, err
				}
				if tr.Detected {
					det += tr.DetectionDelay
					detected++
				}
			}
			return detectionMetrics(det, detected, n), nil
		}})
	}
	// E3 reproduces the §2 parametrization trade-off: arsenal size vs
	// overhead vs detection speed.
	for _, lgs := range []int{2, 8, 32} {
		exps = append(exps, paperExperiment{fmt.Sprintf("E3_MonitoringTradeoff/lgs-%d", lgs), func(n int) ([]metric, error) {
			var det time.Duration
			detected, queries := 0, 0
			for i := 0; i < n; i++ {
				opts := benchOpts(int64(i + 200))
				opts.Sources = []string{experiment.SrcPeriscope}
				opts.LGCount = lgs
				tr, err := runTrial(opts)
				if err != nil {
					return nil, err
				}
				queries += tr.LGQueries
				if tr.Detected {
					det += tr.DetectionDelay
					detected++
				}
			}
			return append(detectionMetrics(det, detected, n), metric{float64(queries) / float64(n), "queries/trial"}), nil
		}})
	}
	// E4 reproduces the §2 caveat: /22 and /23 victims recover fully; a /24
	// victim cannot be out-specified.
	for _, bits := range []int{22, 23, 24} {
		exps = append(exps, paperExperiment{fmt.Sprintf("E4_DeaggregationLimit/victim-%d", bits), func(n int) ([]metric, error) {
			var recovered float64
			for i := 0; i < n; i++ {
				opts := benchOpts(int64(i + 300))
				opts.Owned = prefix.New(prefix.MustParseAddr("10.0.0.0"), bits)
				tr, err := runTrial(opts)
				if err != nil {
					return nil, err
				}
				recovered += tr.RecoveredFrac
			}
			return []metric{{recovered / float64(n), "recovered-frac"}}, nil
		}})
	}
	// E5 reproduces §1's argument: the archive pipeline is
	// minutes-to-hours slower, missing most short hijacks. E6 regenerates
	// the §4 demo series. Both report their last iteration.
	exps = append(exps, paperExperiment{"E5_BaselineComparison", func(n int) ([]metric, error) {
		var ms []metric
		for i := 0; i < n; i++ {
			res, err := experiment.E5(2, benchOpts(int64(i+400)))
			if err != nil {
				return nil, err
			}
			ms = []metric{{res.ArtemisResponse.Mean.Seconds(), "artemis-s"}, {res.BaselineResponse.Mean.Seconds(), "baseline-s"},
				{res.ArtemisCoverage, "artemis-coverage"}, {res.BaselineCoverage, "baseline-coverage"}}
		}
		return ms, nil
	}}, paperExperiment{"E6_PropagationTimeline", func(n int) ([]metric, error) {
		var ms []metric
		for i := 0; i < n; i++ {
			res, err := experiment.E6(benchOpts(int64(i + 500)))
			if err != nil {
				return nil, err
			}
			res.Env.Close()
			ms = []metric{{float64(len(res.Points)), "samples"}, {res.Trial.Total.Seconds(), "total-s"}}
		}
		return ms, nil
	}})
	return exps
}

// benchPaper runs the named experiment's arms, each as a sub-benchmark
// when the experiment has several.
func benchPaper(b *testing.B, name string) {
	for _, e := range paperExperiments() {
		top, sub, _ := strings.Cut(e.name, "/")
		if top != name {
			continue
		}
		run := func(b *testing.B) {
			ms, err := e.run(b.N)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range ms {
				b.ReportMetric(m.v, m.unit)
			}
		}
		if sub == "" {
			run(b)
		} else {
			b.Run(sub, run)
		}
	}
}

func BenchmarkE1_EndToEnd(b *testing.B)            { benchPaper(b, "E1_EndToEnd") }
func BenchmarkE2_PerSourceDetection(b *testing.B)  { benchPaper(b, "E2_PerSourceDetection") }
func BenchmarkE3_MonitoringTradeoff(b *testing.B)  { benchPaper(b, "E3_MonitoringTradeoff") }
func BenchmarkE4_DeaggregationLimit(b *testing.B)  { benchPaper(b, "E4_DeaggregationLimit") }
func BenchmarkE5_BaselineComparison(b *testing.B)  { benchPaper(b, "E5_BaselineComparison") }
func BenchmarkE6_PropagationTimeline(b *testing.B) { benchPaper(b, "E6_PropagationTimeline") }

// --- Ablations of design choices (DESIGN.md) ---

// BenchmarkAblation_MRAI: the MRAI dominates the mitigation tail.
func BenchmarkAblation_MRAI(b *testing.B) {
	for name, mrai := range map[string]time.Duration{
		"mrai-0s": simnet.Disabled, "mrai-15s": 15 * time.Second, "mrai-30s": 30 * time.Second,
	} {
		mrai := mrai
		b.Run(name, func(b *testing.B) {
			var tot time.Duration
			n := 0
			for i := 0; i < b.N; i++ {
				opts := benchOpts(int64(i + 600))
				opts.Net = simnet.Config{MRAI: mrai}
				env, err := experiment.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := experiment.RunTrial(env)
				env.Close()
				if err != nil {
					b.Fatal(err)
				}
				if tr.Detected {
					tot += tr.Total
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(tot.Seconds()/float64(n), "total-s")
			}
		})
	}
}

// BenchmarkAblation_DetectionCriteria: single-source vs all-sources
// detection (the min-of-delays design).
func BenchmarkAblation_DetectionCriteria(b *testing.B) {
	for _, mode := range []string{"streams-only", "all-sources"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var det time.Duration
			n := 0
			for i := 0; i < b.N; i++ {
				opts := benchOpts(int64(i + 700))
				if mode == "streams-only" {
					opts.Sources = []string{experiment.SrcRIS, experiment.SrcBGPmon}
				}
				env, err := experiment.Build(opts)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := experiment.RunTrial(env)
				env.Close()
				if err != nil {
					b.Fatal(err)
				}
				if tr.Detected {
					det += tr.DetectionDelay
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(det.Seconds()/float64(n), "detect-s")
			}
		})
	}
}

// BenchmarkAblation_PrefixIndex: radix trie vs linear scan for
// longest-prefix match, the detector/monitor hot path.
func BenchmarkAblation_PrefixIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nPrefixes = 2000
	prefixes := make([]prefix.Prefix, nPrefixes)
	tr := prefix.NewTrie[int]()
	for i := range prefixes {
		p := prefix.New(prefix.AddrFrom4(rng.Uint32()), 8+rng.Intn(17))
		prefixes[i] = p
		tr.Insert(p, i)
	}
	addrs := make([]prefix.Addr, 1024)
	for i := range addrs {
		addrs[i] = prefix.AddrFrom4(rng.Uint32())
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.LongestMatch(addrs[i%len(addrs)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := addrs[i%len(addrs)]
			best, ok := prefix.Prefix{}, false
			for _, p := range prefixes {
				if p.ContainsAddr(a) && (!ok || p.Bits() > best.Bits()) {
					best, ok = p, true
				}
			}
			_ = best
		}
	})
}

// --- Detection data path: serial vs pipeline ---

// pipelineBenchConfig protects a realistically wide owned space — a /16
// announced as 1024 /26s, the shape of a large operator protecting every
// customer allocation — so the owned-space match has real work to do. The
// serial path scans this list per event; the pipeline resolves it with one
// trie LPM walk during routing and reuses the answer.
func pipelineBenchConfig(tb testing.TB) *core.Config {
	owned, err := prefix.MustParse("10.0.0.0/16").Deaggregate(26)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Config{OwnedPrefixes: owned, LegitOrigins: []bgp.ASN{61000}}
}

// newPipeline starts a one-tenant pipeline under det's config; mon may be
// nil.
func newPipeline(det *core.Detector, mon *core.Monitor, cfg core.PipelineConfig) *core.Pipeline {
	table, err := core.NewPolicyTable([]core.TenantPolicy{{Config: det.Config(), Detector: det, Monitor: mon}})
	if err != nil {
		panic(err)
	}
	return core.NewPipelineTable(table, cfg)
}

// pipelineWorkload builds a deterministic feed-scale event mix: mostly
// benign announcements of the owned space, a slice of unrelated routes the
// filter would pass anyway (covering prefixes), and a pinch of repeated
// hijacks (dedup keeps alert volume bounded across iterations).
func pipelineWorkload(n int) []feedtypes.Event {
	rng := rand.New(rand.NewSource(42))
	evs := make([]feedtypes.Event, n)
	for i := range evs {
		vp := bgp.ASN(100 + rng.Intn(64))
		ev := feedtypes.Event{
			Source:       []string{"ris", "bgpmon", "periscope"}[rng.Intn(3)],
			Collector:    "c0",
			VantagePoint: vp,
			Kind:         feedtypes.Announce,
			SeenAt:       time.Duration(i) * time.Millisecond,
			EmittedAt:    time.Duration(i) * time.Millisecond,
		}
		switch r := rng.Intn(100); {
		case r < 80: // benign: a random owned /26 (or a /27 half), legit origin
			base := uint32(10<<24) + uint32(rng.Intn(1024)<<6)
			if rng.Intn(2) == 0 {
				ev.Prefix = prefix.New(prefix.AddrFrom4(base), 26)
			} else {
				ev.Prefix = prefix.New(prefix.AddrFrom4(base+uint32(rng.Intn(2)<<5)), 27)
			}
			ev.Path = []bgp.ASN{vp, 1001, 61000}
		case r < 95: // unrelated announcement
			ev.Prefix = prefix.New(prefix.AddrFrom4(172<<24|uint32(rng.Intn(1<<16))<<8), 24)
			ev.Path = []bgp.ASN{vp, 2001, bgp.ASN(3000 + rng.Intn(32))}
		default: // hijack, drawn from a small set of repeating incidents
			base := uint32(10<<24) + uint32(rng.Intn(16)<<6)
			ev.Prefix = prefix.New(prefix.AddrFrom4(base), 26)
			ev.Path = []bgp.ASN{vp, 2001, bgp.ASN(666 + rng.Intn(4))}
		}
		evs[i] = ev
	}
	return evs
}

// BenchmarkDetectionBatchIngest is the pipeline's own number: events per
// second through classification for the serial reference path vs the
// pipeline (submit copy, ring hand-off, routing, classification, apply).
func BenchmarkDetectionBatchIngest(b *testing.B) {
	const (
		workload  = 8192
		batchSize = 256 // a hot feed's coalesced flush (cmd/artemisd's pump cap)
	)
	evs := pipelineWorkload(workload)

	b.Run("serial", func(b *testing.B) {
		det := core.NewDetector(pipelineBenchConfig(b))
		b.ReportAllocs() // the allocation-free-hot-path contract (docs/PERFORMANCE.md)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(evs); off += batchSize {
				det.ProcessBatch(evs[off : off+batchSize])
			}
		}
		b.ReportMetric(float64(workload)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("pipeline", func(b *testing.B) {
		det := core.NewDetector(pipelineBenchConfig(b))
		pl := newPipeline(det, nil, core.PipelineConfig{})
		defer pl.Close()
		b.ReportAllocs() // the allocation-free-hot-path contract (docs/PERFORMANCE.md)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(evs); off += batchSize {
				pl.Submit(evs[off : off+batchSize])
			}
			pl.Flush()
		}
		b.ReportMetric(float64(workload)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkTenantFanOut measures the hosted multi-tenant shape: 1000
// tenants, 10 owned /26s each, one shared pipeline. fanout-1 gives every
// tenant a disjoint block (each event classifies under exactly one
// policy) and isolates the routing cost of a 10k-prefix, 1000-way table;
// fanout-4 makes groups of four tenants co-own each block, so every
// matched event classifies four times — the events/s vs classified/s gap
// is the fan-out multiplier. Both sub-benchmarks carry the allocs/op
// gate: tenant fan-out must not reintroduce per-event allocation.
func BenchmarkTenantFanOut(b *testing.B) {
	const (
		tenants   = 1000
		perTenant = 10
		workload  = 8192
		batchSize = 256
	)
	space, err := prefix.MustParse("10.0.0.0/12").Deaggregate(26)
	if err != nil {
		b.Fatal(err)
	}
	for _, fanout := range []int{1, 4} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			policies := make([]core.TenantPolicy, tenants)
			for i := range policies {
				block := i / fanout
				cfg := &core.Config{
					OwnedPrefixes: space[block*perTenant : (block+1)*perTenant],
					LegitOrigins:  []bgp.ASN{61000},
				}
				policies[i] = core.TenantPolicy{
					Name: fmt.Sprintf("t%04d", i), Config: cfg, Detector: core.NewDetector(cfg),
				}
			}
			table, err := core.NewPolicyTable(policies)
			if err != nil {
				b.Fatal(err)
			}
			pl := core.NewPipelineTable(table, core.PipelineConfig{})
			defer pl.Close()

			owned := space[:tenants/fanout*perTenant]
			evs := tenantFanOutWorkload(workload, owned)
			for off := 0; off+batchSize <= len(evs); off += batchSize {
				pl.Submit(evs[off : off+batchSize])
			}
			pl.Flush()

			b.ReportAllocs() // the allocation-free-hot-path contract (docs/PERFORMANCE.md)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(evs); off += batchSize {
					pl.Submit(evs[off : off+batchSize])
				}
				pl.Flush()
			}
			elapsed := b.Elapsed().Seconds()
			b.ReportMetric(float64(workload)*float64(b.N)/elapsed, "events/s")
			b.ReportMetric(float64(workload*fanout)*float64(b.N)/elapsed, "classified/s")
		})
	}
}

// tenantFanOutWorkload is pipelineWorkload's multi-tenant twin: benign
// announcements spread uniformly over the given owned space, with the
// same pinch of repeating hijack incidents (dedup bounds alert volume).
func tenantFanOutWorkload(n int, owned []prefix.Prefix) []feedtypes.Event {
	rng := rand.New(rand.NewSource(43))
	evs := make([]feedtypes.Event, n)
	for i := range evs {
		vp := bgp.ASN(100 + rng.Intn(64))
		ev := feedtypes.Event{
			Source:       []string{"ris", "bgpmon", "periscope"}[rng.Intn(3)],
			Collector:    "c0",
			VantagePoint: vp,
			Kind:         feedtypes.Announce,
			SeenAt:       time.Duration(i) * time.Millisecond,
			EmittedAt:    time.Duration(i) * time.Millisecond,
		}
		switch r := rng.Intn(100); {
		case r < 95: // benign announcement of a random tenant's prefix
			ev.Prefix = owned[rng.Intn(len(owned))]
			ev.Path = []bgp.ASN{vp, 1001, 61000}
		default: // hijack, drawn from a small set of repeating incidents
			ev.Prefix = owned[rng.Intn(16)]
			ev.Path = []bgp.ASN{vp, 2001, bgp.ASN(666 + rng.Intn(4))}
		}
		evs[i] = ev
	}
	return evs
}

// BenchmarkIngestFanIn measures the supervised multi-source fan-in: the
// same feed-scale workload delivered over 1, 4 or 8 supervised source
// connections with overlapping vantage points — each route change has a
// primary source (sticky per vantage point, like real collector peering)
// and is re-observed by a second source for a quarter of the events, so
// the cross-source dedup has real work. Unique-event throughput must stay
// close to the single-connection number even as the connection count and
// the duplicate volume grow — the property that makes adding monitoring
// sources reduce detection delay instead of multiplying sink load.
func BenchmarkIngestFanIn(b *testing.B) {
	const (
		workload  = 8192
		batchSize = 256
	)
	base := pipelineWorkload(workload)
	for _, nsrc := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sources-%d", nsrc), func(b *testing.B) {
			// Scatter the workload across the sources: primary by vantage
			// point, plus a ~25% cross-source duplicate tail when more
			// than one source exists.
			rng := rand.New(rand.NewSource(7))
			perSource := make([][]feedtypes.Event, nsrc)
			ingested := 0
			for i := range base {
				ev := base[i]
				s := int(ev.VantagePoint) % nsrc
				ev.Source = fmt.Sprintf("src%d", s)
				perSource[s] = append(perSource[s], ev)
				ingested++
				if nsrc > 1 && rng.Intn(4) == 0 {
					dup := base[i]
					d := (s + 1 + rng.Intn(nsrc-1)) % nsrc
					dup.Source = fmt.Sprintf("src%d", d)
					dup.EmittedAt += time.Millisecond // the slower feed's copy
					perSource[d] = append(perSource[d], dup)
					ingested++
				}
			}
			streams := make([][][]feedtypes.Event, nsrc)
			for s := range perSource {
				for off := 0; off < len(perSource[s]); off += batchSize {
					streams[s] = append(streams[s], perSource[s][off:min(off+batchSize, len(perSource[s]))])
				}
			}
			// allocs/op here includes building a detector, pipeline and
			// supervisor per iteration; the steady-state per-event path is
			// gated by BenchmarkDetectionBatchIngest instead.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det := core.NewDetector(pipelineBenchConfig(b))
				pl := newPipeline(det, nil, core.PipelineConfig{})
				sup := ingest.New(pl.Submit, ingest.Config{QueueDepth: 256})
				for s := range streams {
					sup.AddDialer(fmt.Sprintf("src%d", s), ingest.ReplayDialer(streams[s]), ingest.Blocking())
				}
				sup.Wait() // replay sources end themselves (ErrDone)
				sup.Close()
				pl.Flush()
				pl.Close()
			}
			elapsed := b.Elapsed().Seconds()
			b.ReportMetric(float64(workload)*float64(b.N)/elapsed, "events/s")
			b.ReportMetric(float64(ingested)*float64(b.N)/elapsed, "ingested/s")
		})
	}
}

// sinkWorkload is the monitor's share of the daemon's feed, in
// benchmark/gen's shape: 1024 owned /26s tiling 10.0.0.0/16 plus 64 owned
// /48s, 64 vantage points, and the 70/10/10/5/5 mix of benign exact
// announcements, withdrawals, unrelated routes, exact-origin hijacks and
// legitimate-origin sub-prefixes (10% of benign and unrelated events are
// IPv6). SeenAt counts events.
func sinkWorkload(n int) (*core.Config, []feedtypes.Event) {
	owned, _ := prefix.MustParse("10.0.0.0/16").Deaggregate(26)
	v4 := len(owned)
	for i := 0; i < 64; i++ {
		owned = append(owned, prefix.New(prefix.AddrFrom16(0x20010db8<<32|uint64(2*i)<<16, 0), 48))
	}
	cfg := &core.Config{OwnedPrefixes: owned, LegitOrigins: []bgp.ASN{61000}, Self: core.NewSelfAnnounced()}
	rng := rand.New(rand.NewSource(9))
	evs := make([]feedtypes.Event, n)
	for i := range evs {
		vp := bgp.ASN(3000 + rng.Intn(64))
		v6 := rng.Intn(10) == 0
		ev := feedtypes.Event{
			Source: "ris", VantagePoint: vp, Kind: feedtypes.Announce,
			Path:   []bgp.ASN{vp, 20000, 1001, 61000},
			SeenAt: time.Duration(i), EmittedAt: time.Duration(i),
		}
		switch r := rng.Intn(20); {
		case r < 16: // benign exact (14/20) and withdrawal (2/20) of owned space
			if v6 {
				ev.Prefix = owned[v4+rng.Intn(64)]
			} else {
				ev.Prefix = owned[rng.Intn(v4)]
			}
			if r >= 14 {
				ev.Kind, ev.Path = feedtypes.Withdraw, nil
			}
		case r < 18: // unrelated
			if v6 {
				ev.Prefix = prefix.New(prefix.AddrFrom16(0x2400cb00<<32|uint64(rng.Intn(256))<<16, 0), 48)
			} else {
				ev.Prefix = prefix.New(prefix.AddrFrom4(172<<24|20<<16|uint32(rng.Intn(1024))<<8), 24)
			}
			ev.Path = []bgp.ASN{vp, 20000, 2914, 64700}
		case r < 19: // exact-origin hijack of one of 64 owned /26s
			ev.Prefix = owned[rng.Intn(64)]
			ev.Path = []bgp.ASN{vp, 20000, bgp.ASN(64600 + rng.Intn(4))}
		default: // legitimate origin on one of 64 unregistered /27s
			ev.Prefix, _ = owned[64+rng.Intn(64)].Split()
		}
		evs[i] = ev
	}
	return cfg, evs
}

// BenchmarkSinkApply isolates the sink's monitor cost on sinkWorkload,
// folded into a monitor warmed by the whole stream. incremental is the
// sink's own call: one op folds a 256-event batch. The incremental monitor
// touches only the probes the event's prefix covers — it is what keeps the
// single ordered sink off the ingest critical path.
func BenchmarkSinkApply(b *testing.B) {
	cfg, evs := sinkWorkload(1 << 16)
	b.Run("incremental", func(b *testing.B) {
		const batch = 256
		m := core.NewMonitor(cfg)
		m.ProcessBatch(evs)
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for i := 0; i < b.N; i++ {
			part := evs[off : off+batch]
			for j := range part { // fresher than the last pass: not stale-dropped
				part[j].SeenAt += time.Duration(len(evs))
				part[j].EmittedAt = part[j].SeenAt
			}
			m.ProcessBatch(part)
			off = (off + batch) % len(evs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
	})
}

// BenchmarkBGPCodec measures the wire codec on a realistic UPDATE.
func BenchmarkBGPCodec(b *testing.B) {
	u := &bgp.Update{
		Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{Value: bgp.OriginIGP},
			bgp.NewASPath([]bgp.ASN{65001, 65002, 65003, 196615}),
			&bgp.NextHopAttr{Addr: prefix.MustParseAddr("192.0.2.1")},
		},
		NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/23"), prefix.MustParse("10.0.0.0/24")},
	}
	wire, err := bgp.Marshal(u, bgp.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bgp.Marshal(u, bgp.DefaultOptions); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bgp.ParseMessage(wire, bgp.DefaultOptions); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorConvergence measures raw simulator throughput: one
// announcement flooding a 500-AS Internet.
func BenchmarkSimulatorConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := experiment.Build(benchOpts(int64(i + 800)))
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Victim.Announce(env.Net, env.Opts.Owned); err != nil {
			b.Fatal(err)
		}
		env.Engine.RunUntil(10 * time.Minute)
		env.Close()
	}
}
