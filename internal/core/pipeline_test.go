package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// newPipeline starts a one-tenant pipeline under det's config; mon may be
// nil.
func newPipeline(det *Detector, mon *Monitor, cfg PipelineConfig) *Pipeline {
	return NewPipelineTable(oneTenant(det, mon, det.Config(), nil), cfg)
}

// oneTenant builds a one-tenant policy table under cfg; rt carries the
// tenant's runtime over from a previous table (nil starts a fresh one).
func oneTenant(det *Detector, mon *Monitor, cfg *Config, rt *TenantRuntime) *PolicyTable {
	table, err := NewPolicyTable([]TenantPolicy{{Config: cfg, Detector: det, Monitor: mon, Runtime: rt}})
	if err != nil {
		panic(err)
	}
	return table
}

// multiOwnedConfig spreads ownership over several prefixes so routing has
// something to tell apart.
func multiOwnedConfig() *Config {
	return &Config{
		OwnedPrefixes: []prefix.Prefix{
			prefix.MustParse("10.0.0.0/23"),
			prefix.MustParse("10.1.0.0/22"),
			prefix.MustParse("192.0.2.0/24"),
			prefix.MustParse("198.51.100.0/24"),
			prefix.MustParse("203.0.113.0/24"),
		},
		LegitOrigins: []bgp.ASN{61000},
	}
}

// mixedEvents builds a deterministic stream touching every classification
// branch: benign announcements, exact/sub/squat hijacks, withdrawals, and
// unrelated prefixes.
func mixedEvents(n int) []feedtypes.Event {
	sources := []string{"ris", "bgpmon", "periscope"}
	evs := make([]feedtypes.Event, 0, n)
	for i := 0; i < n; i++ {
		vp := bgp.ASN(100 + i%7)
		at := time.Duration(i) * time.Millisecond
		ev := feedtypes.Event{
			Source:       sources[i%len(sources)],
			Collector:    "c0",
			VantagePoint: vp,
			Kind:         feedtypes.Announce,
			SeenAt:       at,
			EmittedAt:    at,
		}
		switch i % 11 {
		case 0: // benign: owned prefix from the legit origin
			ev.Prefix = prefix.MustParse("10.0.0.0/23")
			ev.Path = []bgp.ASN{vp, 1001, 61000}
		case 1: // exact-origin hijack
			ev.Prefix = prefix.MustParse("10.1.0.0/22")
			ev.Path = []bgp.ASN{vp, 1001, bgp.ASN(660 + i%5)}
		case 2: // sub-prefix hijack
			ev.Prefix = prefix.MustParse("10.0.1.0/24")
			ev.Path = []bgp.ASN{vp, 1002, bgp.ASN(660 + i%5)}
		case 3: // squat
			ev.Prefix = prefix.MustParse("192.0.0.0/16")
			ev.Path = []bgp.ASN{vp, 1003, bgp.ASN(660 + i%5)}
		case 4: // withdrawal — detector ignores, monitor folds
			ev.Kind = feedtypes.Withdraw
			ev.Prefix = prefix.MustParse("10.0.0.0/23")
		default: // unrelated prefixes
			ev.Prefix = prefix.New(prefix.AddrFrom4(uint32(172<<24)|uint32(i)<<8), 24)
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(3000 + i%17)}
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestPipelineMatchesSerial is the equivalence oracle: the pipeline must
// produce exactly the serial path's alerts, per-source counters, and
// monitor state for the same ordered stream.
func TestPipelineMatchesSerial(t *testing.T) {
	evs := mixedEvents(500)

	serialDet := NewDetector(multiOwnedConfig())
	serialMon := NewMonitor(multiOwnedConfig())
	for _, ev := range evs {
		serialDet.Process(ev)
		serialMon.Process(ev)
	}

	pipeDet := NewDetector(multiOwnedConfig())
	pipeMon := NewMonitor(multiOwnedConfig())
	p := newPipeline(pipeDet, pipeMon, PipelineConfig{QueueDepth: 8})
	for i := 0; i < len(evs); i += 37 { // uneven batch boundaries
		end := min(i+37, len(evs))
		p.SubmitWait(evs[i:end])
	}
	p.Close()

	if got, want := pipeDet.Alerts(), serialDet.Alerts(); !reflect.DeepEqual(got, want) {
		t.Errorf("alerts diverge:\n pipeline %+v\n serial   %+v", got, want)
	}
	if got, want := pipeDet.EventsBySource(), serialDet.EventsBySource(); !reflect.DeepEqual(got, want) {
		t.Errorf("per-source counts diverge: pipeline %v serial %v", got, want)
	}
	if got, want := pipeMon.History(), serialMon.History(); !reflect.DeepEqual(got, want) {
		t.Errorf("monitor history diverges: %d vs %d samples", len(got), len(want))
	}
	if got, want := pipeMon.VPOrigins(), serialMon.VPOrigins(); !reflect.DeepEqual(got, want) {
		t.Errorf("VP origins diverge: pipeline %v serial %v", got, want)
	}
}

// TestPipelineAlertHandlerOrder checks that handlers fire on the sink in
// submission order, first occurrence only (dedup), exactly as serially.
func TestPipelineAlertHandlerOrder(t *testing.T) {
	det := NewDetector(multiOwnedConfig())
	var mu sync.Mutex
	var order []incidentKey
	det.OnAlert(func(a Alert) {
		mu.Lock()
		order = append(order, a.incident())
		mu.Unlock()
	})
	p := newPipeline(det, nil, PipelineConfig{})

	mk := func(pfx string, origin bgp.ASN) feedtypes.Event {
		return feedtypes.Event{
			Source: "ris", VantagePoint: 1, Kind: feedtypes.Announce,
			Prefix: prefix.MustParse(pfx), Path: []bgp.ASN{1, origin},
		}
	}
	batch := []feedtypes.Event{
		mk("10.0.0.0/23", 666),  // alert 1
		mk("10.1.0.0/22", 777),  // alert 2
		mk("10.0.0.0/23", 666),  // dup of 1
		mk("192.0.2.0/24", 888), // alert 3
	}
	p.SubmitWait(batch)
	p.SubmitWait(batch) // all dups now
	p.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("handler fired %d times, want 3: %v", len(order), order)
	}
	want := []incidentKey{
		{typ: AlertExactOrigin, prefix: prefix.MustParse("10.0.0.0/23"), origin: 666},
		{typ: AlertExactOrigin, prefix: prefix.MustParse("10.1.0.0/22"), origin: 777},
		{typ: AlertExactOrigin, prefix: prefix.MustParse("192.0.2.0/24"), origin: 888},
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("handler order %v, want %v", order, want)
	}
}

// TestPipelineCloseFlushesPending: batches already submitted when Close is
// called must still be classified and applied.
func TestPipelineCloseFlushesPending(t *testing.T) {
	det := NewDetector(multiOwnedConfig())
	p := newPipeline(det, nil, PipelineConfig{QueueDepth: 4})
	evs := mixedEvents(300)
	for i := 0; i < len(evs); i += 10 {
		p.Submit(evs[i : i+10]) // async: no waiting
	}
	p.Close()

	snap := p.Snapshot()
	if snap.Submitted != 30 || snap.Applied != 30 {
		t.Fatalf("submitted %d applied %d, want 30/30", snap.Submitted, snap.Applied)
	}
	if snap.Events != int64(len(evs)) {
		t.Fatalf("events %d, want %d", snap.Events, len(evs))
	}
	// Serial reference for the same stream.
	ref := NewDetector(multiOwnedConfig())
	ref.ProcessBatch(evs)
	if got, want := len(det.Alerts()), len(ref.Alerts()); got != want {
		t.Fatalf("alerts after close: %d, want %d", got, want)
	}
	// Submission after Close is dropped, not processed or deadlocked.
	p.Submit(evs[:10])
	if p.Snapshot().Submitted != 30 {
		t.Fatal("submit after close was accepted")
	}
}

// TestPipelineStress drives ≥10k events from concurrent submitters through
// a small-queue pipeline (forcing backpressure) under -race, and checks
// conservation: every event counted, totals matching a serial reference.
// Half the submitters use SubmitWait.
func TestPipelineStress(t *testing.T) {
	const (
		submitters = 8
		perSub     = 1500 // 12000 events total
		batchSize  = 25
	)
	cfg := multiOwnedConfig()
	det := NewDetector(cfg)
	mon := NewMonitor(cfg)
	p := newPipeline(det, mon, PipelineConfig{QueueDepth: 2})

	streams := make([][]feedtypes.Event, submitters)
	for s := range streams {
		evs := mixedEvents(perSub)
		// Distinct sources and VPs per submitter so cross-stream totals are
		// order-independent.
		for i := range evs {
			evs[i].Source = fmt.Sprintf("src-%d", s)
			evs[i].VantagePoint = bgp.ASN(1000*(s+1)) + evs[i].VantagePoint
			if len(evs[i].Path) > 0 {
				evs[i].Path[0] = evs[i].VantagePoint
			}
		}
		streams[s] = evs
	}

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		submit := p.Submit
		if s%2 == 1 {
			submit = p.SubmitWait
		}
		go func(evs []feedtypes.Event) {
			defer wg.Done()
			for i := 0; i < len(evs); i += batchSize {
				submit(evs[i : i+batchSize])
			}
		}(streams[s])
	}
	wg.Wait()
	p.Flush()

	snap := p.Snapshot()
	if snap.Events != submitters*perSub {
		t.Fatalf("ingested %d events, want %d", snap.Events, submitters*perSub)
	}
	if snap.Submitted != snap.Applied {
		t.Fatalf("flush incomplete: submitted %d applied %d", snap.Submitted, snap.Applied)
	}
	if len(snap.Shards) != 1 || snap.Shards[0].Events != snap.Events {
		t.Fatalf("worker classified %+v events, ingested %d", snap.Shards, snap.Events)
	}
	p.Close()

	// Per-source counts must match a serial run of each stream.
	want := map[string]int{}
	for _, evs := range streams {
		ref := NewDetector(multiOwnedConfig())
		ref.ProcessBatch(evs)
		for src, n := range ref.EventsBySource() {
			want[src] += n
		}
	}
	if got := det.EventsBySource(); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-source counts diverge:\n got  %v\n want %v", got, want)
	}
	// Alert *set* must match the union (order across streams is unordered).
	wantKeys := map[incidentKey]bool{}
	for _, evs := range streams {
		ref := NewDetector(multiOwnedConfig())
		ref.ProcessBatch(evs)
		for _, a := range ref.Alerts() {
			wantKeys[a.incident()] = true
		}
	}
	gotKeys := map[incidentKey]bool{}
	for _, a := range det.Alerts() {
		gotKeys[a.incident()] = true
	}
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("alert sets diverge: got %d want %d", len(gotKeys), len(wantKeys))
	}
}
