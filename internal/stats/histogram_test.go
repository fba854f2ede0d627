package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf overflow
	h.Observe(-time.Second)           // clamped to 0 → bucket 0

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	want := []int64{3, 1, 0, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Sum != 500*time.Microsecond+3*time.Millisecond+time.Second {
		t.Fatalf("sum = %v", s.Sum)
	}
	if got := s.Mean(); got != s.Sum/5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramDefaultBucketsAndConcurrency(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d", s.Count)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestWritePromShapes(t *testing.T) {
	h := NewHistogram(time.Millisecond, time.Second)
	h.Observe(2 * time.Millisecond)
	snap := PipelineSnapshot{
		Submitted: 10, Applied: 9, Events: 1000,
		SinkApply: h.Snapshot(),
		Shards: []ShardSnapshot{
			{Shard: 0, Events: 600, Batches: 6, QueueLen: 1, QueueCap: 128, Service: h.Snapshot()},
		},
	}
	var b strings.Builder
	snap.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"artemis_pipeline_batches_submitted_total 10",
		"artemis_pipeline_inflight_batches 1",
		`artemis_pipeline_shard_events_total{shard="0"} 600`,
		`artemis_pipeline_sink_apply_seconds_bucket{le="0.001"} 0`,
		`artemis_pipeline_sink_apply_seconds_bucket{le="+Inf"} 1`,
		"artemis_pipeline_sink_apply_seconds_count 1",
		`artemis_pipeline_shard_service_seconds_bucket{shard="0",le="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	var mb strings.Builder
	MitigationQueueSnapshot{Enqueued: 5, Handled: 4, QueueLen: 1, QueueCap: 64,
		Wait: h.Snapshot(), Handle: h.Snapshot(), Failures: 2}.WriteProm(&mb)
	mout := mb.String()
	for _, want := range []string{
		"artemis_mitigation_enqueued_total 5",
		"artemis_mitigation_failures_total 2",
		"artemis_mitigation_queue_depth 1",
		`artemis_mitigation_wait_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(mout, want) {
			t.Fatalf("missing %q in:\n%s", want, mout)
		}
	}
}
