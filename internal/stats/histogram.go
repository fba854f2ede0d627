package stats

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the upper bounds used when a Histogram is
// built without explicit buckets: exponential from 10µs to 10s, the span
// between a cheap in-memory sink apply and a stalled southbound call.
var DefaultLatencyBuckets = []time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a concurrency-safe duration histogram for hot-path
// instrumentation (queue waits, pipeline service times). Like Counter it
// is written on the data path itself: one atomic add per observation, no
// locks, no allocation. Bucket bounds are fixed at construction; an
// implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64   // nanoseconds
	n      atomic.Int64
}

// NewHistogram builds a histogram with the given ascending upper bounds,
// or DefaultLatencyBuckets when none are given.
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts are
// per-bucket (NOT cumulative): Counts[i] is the number of observations
// that fell between Bounds[i-1] (exclusive) and Bounds[i] (inclusive);
// the final entry is the +Inf overflow bucket. The Prometheus renderer
// accumulates them into cumulative `le` buckets.
type HistogramSnapshot struct {
	Bounds []time.Duration
	Counts []int64
	Sum    time.Duration
	Count  int64
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
