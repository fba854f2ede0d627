package stats

import "sync/atomic"

// Counter is a concurrency-safe monotonic counter for hot-path
// instrumentation (events processed, batches flushed). The zero value is
// ready to use. Unlike the sampling helpers in this package, a Counter is
// written on the data path itself, so it is a single atomic — no locks,
// no allocation.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// ShardSnapshot is the detection pipeline worker's counters at a point in
// time (the worker reports as shard 0): cumulative throughput plus
// instantaneous queue depth, which shows a backpressured pipeline (queue
// pinned at capacity).
type ShardSnapshot struct {
	// Shard is the shard label, 0.
	Shard int
	// Events is the cumulative number of events the worker classified.
	Events int64
	// Batches is the cumulative number of batches it processed.
	Batches int64
	// QueueLen is the number of batches currently waiting; QueueCap is
	// the bound that triggers backpressure.
	QueueLen, QueueCap int
	// Service is the distribution of the worker's per-batch routing and
	// classification time.
	Service HistogramSnapshot
}

// PipelineSnapshot aggregates a pipeline's observability counters.
type PipelineSnapshot struct {
	// Submitted and Applied count whole ingest batches: Submitted-Applied
	// is the in-flight depth of the pipeline.
	Submitted, Applied int64
	// Events is the cumulative number of events ingested.
	Events int64
	// Reconfigs counts applied live-reconfiguration barriers (each also
	// counts as one submitted and applied batch).
	Reconfigs int64
	// SinkApply is the distribution of the sink's per-batch apply time
	// (alert commit + handler dispatch + monitor fold).
	SinkApply HistogramSnapshot
	// Shards holds the worker's view, one entry.
	Shards []ShardSnapshot
}

// IngestSourceSnapshot is one supervised feed source's counters: health
// state, cumulative throughput, how much of its traffic the cross-source
// dedup absorbed, what its own drop policy shed, and the distribution of
// its delivery latency (EmittedAt - SeenAt — the source's contribution to
// detection delay).
type IngestSourceSnapshot struct {
	// ID is the supervisor-assigned source id; Name the operator-facing
	// label ("ris[0]").
	ID   int
	Name string
	// State is the lifecycle state ("connecting", "healthy", "degraded",
	// "dead", "finished").
	State string
	// Events/Batches count deliveries into the pipeline after dedup.
	Events, Batches int64
	// DedupHits counts events suppressed because another source (or an
	// earlier batch) already delivered the same route change.
	DedupHits int64
	// Drops counts events shed by this source's own queue bound — the
	// drop policy that keeps a stalled source from wedging its siblings.
	Drops int64
	// RateShed counts events shed by the source's token-bucket rate
	// limit (drop-policy sources only; blocking sources are paced, not
	// shed).
	RateShed int64
	// Reconnects counts dial attempts beyond the first (redials after a
	// connection loss plus retries of failed dials).
	Reconnects int64
	// QueueLen/QueueCap describe the per-source bounded queue right now
	// (zero capacity for synchronous in-process sources, which have none).
	QueueLen, QueueCap int
	// Latency is the distribution of EmittedAt - SeenAt over delivered
	// events.
	Latency HistogramSnapshot
}

// IngestSnapshot aggregates the ingest supervisor's observability
// counters.
type IngestSnapshot struct {
	// DedupSize is the current number of route-change identities in the
	// shared TTL'd seen-set; -1 when dedup is disabled.
	DedupSize int
	// Sources holds the per-source view, in source-id order.
	Sources []IngestSourceSnapshot
}

// MitigationQueueSnapshot is a node's mitigation queue's counters: how
// many alerts entered and left the queue, how long they waited, and how
// long the handler (mitigation computation and southbound requests) took.
type MitigationQueueSnapshot struct {
	// Enqueued/Handled count alerts through the queue; Enqueued-Handled is
	// the stage's in-flight depth. Dropped counts alerts rejected after
	// Close. Blocked counts enqueues that hit a full queue (backpressure
	// onto the sink).
	Enqueued, Handled, Dropped, Blocked int64
	// Failures counts mitigations that ended in a controller/injector
	// error (the incident stays retryable).
	Failures int64
	// QueueLen/QueueCap describe the bounded queue right now.
	QueueLen, QueueCap int
	// Wait is time spent queued; Handle is handler execution time.
	Wait, Handle HistogramSnapshot
}
