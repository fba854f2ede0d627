//go:build !race

// The steady-state allocation gate: the tier-1 assertion behind the
// benchdiff CI gate (docs/PERFORMANCE.md). Excluded under the race
// detector, whose instrumentation allocates on its own schedule.
package artemis_test

import (
	"path/filepath"
	"testing"

	"artemis/internal/core"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
)

// TestSubmitSteadyStateAllocationFree asserts the tentpole contract
// directly: once the pipeline's job pool and arenas have grown to the
// workload's high-water mark, submitting a batch — deep copy, routing,
// classification, apply — performs (amortized) at most one
// allocation per batch. The slack of 1 absorbs sync.Pool's GC-driven
// refills; the structural claim is that nothing on the path allocates
// per event or per batch.
func TestSubmitSteadyStateAllocationFree(t *testing.T) {
	const batchSize = 256
	evs := pipelineWorkload(8192)
	det := core.NewDetector(pipelineBenchConfig(t))
	pl := core.NewPipeline(det, nil, core.PipelineConfig{})
	defer pl.Close()

	// Warm up: grow every pooled arena (and raise every alert the dedup
	// will suppress from then on).
	for off := 0; off+batchSize <= len(evs); off += batchSize {
		pl.Submit(evs[off : off+batchSize])
	}
	pl.Flush()

	off := 0
	avg := testing.AllocsPerRun(100, func() {
		pl.Submit(evs[off : off+batchSize])
		off = (off + batchSize) % len(evs)
		pl.Flush()
	})
	if avg > 1 {
		t.Errorf("steady-state Submit averaged %.2f allocs per batch, want <= 1 (see docs/PERFORMANCE.md)", avg)
	}
}

// TestSubmitSteadyStateAllocationFreeMultiTenant asserts the contract
// holds for the shared multi-tenant pipeline: two tenants own the same
// /26 space, so every matched event fans out to (and is classified by)
// both — the route-per-owner path must stay as allocation-free as the
// single-tenant one.
func TestSubmitSteadyStateAllocationFreeMultiTenant(t *testing.T) {
	const batchSize = 256
	evs := pipelineWorkload(8192)
	policies := make([]core.TenantPolicy, 2)
	for i, name := range []string{"a", "b"} {
		cfg := pipelineBenchConfig(t)
		policies[i] = core.TenantPolicy{Name: name, Config: cfg, Detector: core.NewDetector(cfg)}
	}
	table, err := core.NewPolicyTable(policies)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPipelineTable(table, core.PipelineConfig{})
	defer pl.Close()

	for off := 0; off+batchSize <= len(evs); off += batchSize {
		pl.Submit(evs[off : off+batchSize])
	}
	pl.Flush()

	off := 0
	avg := testing.AllocsPerRun(100, func() {
		pl.Submit(evs[off : off+batchSize])
		off = (off + batchSize) % len(evs)
		pl.Flush()
	})
	if avg > 1 {
		t.Errorf("steady-state multi-tenant Submit averaged %.2f allocs per batch, want <= 1 (see docs/PERFORMANCE.md)", avg)
	}
	for _, name := range []string{"a", "b"} {
		if n := table.Runtime(name).Events(); n == 0 {
			t.Errorf("tenant %q saw no events; fan-out not exercised", name)
		}
	}
}

// TestIngestSteadyStateAllocationFree asserts the same contract for the
// supervised fan-in path: hub publish → pooled queue copy → ring →
// dedup → pipeline. The in-process source delivers synchronously here so
// AllocsPerRun observes the whole path on one goroutine.
func TestIngestSteadyStateAllocationFree(t *testing.T) {
	const batchSize = 256
	evs := pipelineWorkload(8192)
	det := core.NewDetector(pipelineBenchConfig(t))
	pl := core.NewPipeline(det, nil, core.PipelineConfig{})
	defer pl.Close()
	sup := ingest.New(pl.Submit, ingest.Config{Synchronous: true, DedupTTL: -1})
	defer sup.Close()
	hub := feedtypes.NewHub()
	sup.AddSource("bench", hubSource{Hub: hub, name: "bench"}, feedtypes.Filter{})

	pool := feedtypes.NewBatchPool()
	publish := func(off int) {
		b := pool.Get()
		b.AppendEvents(evs[off : off+batchSize])
		hub.Publish(b.Events)
		b.Release()
	}
	for off := 0; off+batchSize <= len(evs); off += batchSize {
		publish(off)
	}
	pl.Flush()

	off := 0
	avg := testing.AllocsPerRun(100, func() {
		publish(off)
		off = (off + batchSize) % len(evs)
		pl.Flush()
	})
	if avg > 1 {
		t.Errorf("steady-state ingest averaged %.2f allocs per batch, want <= 1 (see docs/PERFORMANCE.md)", avg)
	}
}

// TestRecordSteadyStateAllocationFree asserts the -record contract:
// archiving the post-dedup stream rides the ingest path for at most one
// extra (amortized) allocation per batch — the recorder deep-copies
// into pooled storage and does all I/O on its own goroutine, so with
// the baseline path at <= 1 alloc per 256-event batch the recorded
// path stays <= 2. (AllocsPerRun counts mallocs across all goroutines,
// so the writer goroutine's work is included.)
func TestRecordSteadyStateAllocationFree(t *testing.T) {
	const batchSize = 256
	evs := pipelineWorkload(8192)
	det := core.NewDetector(pipelineBenchConfig(t))
	pl := core.NewPipeline(det, nil, core.PipelineConfig{})
	defer pl.Close()
	rec, err := eventlog.NewRecorder(eventlog.RecorderConfig{
		Prefix:       filepath.Join(t.TempDir(), "cap"),
		MaxFileBytes: 1 << 30, // no rotation inside the measured loop
		QueueDepth:   1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	deliver := func(evs []feedtypes.Event) {
		pl.Submit(evs)
		rec.Record(evs)
	}
	sup := ingest.New(deliver, ingest.Config{Synchronous: true, DedupTTL: -1})
	defer sup.Close()
	hub := feedtypes.NewHub()
	sup.AddSource("bench", hubSource{Hub: hub, name: "bench"}, feedtypes.Filter{})

	pool := feedtypes.NewBatchPool()
	publish := func(off int) {
		b := pool.Get()
		b.AppendEvents(evs[off : off+batchSize])
		hub.Publish(b.Events)
		b.Release()
	}
	for off := 0; off+batchSize <= len(evs); off += batchSize {
		publish(off)
	}
	pl.Flush()

	off := 0
	avg := testing.AllocsPerRun(100, func() {
		publish(off)
		off = (off + batchSize) % len(evs)
		pl.Flush()
	})
	if avg > 2 {
		t.Errorf("steady-state recorded ingest averaged %.2f allocs per batch, want <= 2 (recording adds at most 1)", avg)
	}
	if s := rec.Snapshot(); s.Dropped != 0 {
		t.Errorf("recorder shed %d events during the measured loop", s.Dropped)
	}
}

// hubSource adapts a Hub to feedtypes.Source for the supervisor (the
// test-local twin of the ingest tests' helper).
type hubSource struct {
	*feedtypes.Hub
	name string
}

func (h hubSource) Name() string { return h.name }
