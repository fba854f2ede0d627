package core

import (
	"sync"
	"time"

	"artemis/internal/stats"
)

// MitigationQueue decouples alert handling from the goroutine that raises
// alerts. It does not exist to keep a slow southbound off the sink: the
// controller has always deferred its REST call through its clock's
// after, so the sink never waited on it. It exists for detection
// latency. With the queue deleted and the handler run at alert commit
// (after the alert observers), 30 s end-to-end runs on a 2-vCPU guest
// measured glass-mixed detect p50 at 0.762 ms against 0.548 ms with the
// queue (5 alternating pairs, every run without it slower) and
// ris-paced at 0.815 against 0.514 ms, while mitigate p50 moved only
// 0.740 -> 0.717 and 0.763 -> 0.744 ms. The likely cause, not traced:
// on the daemon's one busy CPU the southbound POST goroutine ran before
// the alert's SSE writer. The queue gives mitigation its own goroutine
// behind a bounded, ordered channel:
//
//   - Ordered: alerts are handled in enqueue order — the order the sink
//     committed them — so mitigation records stay deterministic.
//   - Bounded, explicit backpressure: when the queue is full, Enqueue
//     blocks the caller (no silent dropping; the pipeline's own
//     backpressure then propagates to the feeds). Blocked enqueues are
//     counted so the condition is visible in /metrics.
//   - Drained on Close: alerts already accepted are always handled.
//   - Synchronous mode runs the handler inline on the caller, preserving
//     the virtual-time experiments' semantics (a feed's publish returns
//     only after mitigation is scheduled on the engine clock).
type MitigationQueue struct {
	handler func(Alert)
	cfg     MitigationQueueConfig

	// life guards the enqueue/close race exactly like the pipeline's:
	// enqueuers hold it shared, Close takes it exclusive to flip closed
	// and close the channel.
	life   sync.RWMutex
	closed bool
	ch     chan queuedAlert
	done   chan struct{}

	enqueued, handled, dropped, blocked stats.Counter
	wait, handle                        *stats.Histogram
	failures                            func() int64
}

type queuedAlert struct {
	alert Alert
	at    time.Time
}

// MitigationQueueConfig tunes the queue.
type MitigationQueueConfig struct {
	// Depth bounds the number of waiting alerts before Enqueue blocks
	// (default 64).
	Depth int
	// Synchronous runs the handler inline on the enqueuing goroutine —
	// the pre-queue semantics the virtual-time experiments require.
	Synchronous bool
}

func (c MitigationQueueConfig) withDefaults() MitigationQueueConfig {
	if c.Depth <= 0 {
		c.Depth = 64
	}
	return c
}

// NewMitigationQueue builds the queue over a handler and, unless
// Synchronous, starts its worker goroutine. failures, when non-nil,
// supplies the handler's cumulative failure count for snapshots (the
// Mitigator's counter). Close releases the worker.
func NewMitigationQueue(handler func(Alert), cfg MitigationQueueConfig, failures func() int64) *MitigationQueue {
	cfg = cfg.withDefaults()
	q := &MitigationQueue{
		handler:  handler,
		cfg:      cfg,
		done:     make(chan struct{}),
		wait:     stats.NewHistogram(),
		handle:   stats.NewHistogram(),
		failures: failures,
	}
	if cfg.Synchronous {
		// No queue exists in synchronous mode: ch stays nil (len/cap 0 in
		// snapshots) and there is no worker to wait for.
		close(q.done)
		return q
	}
	q.ch = make(chan queuedAlert, cfg.Depth)
	go q.run()
	return q
}

func (q *MitigationQueue) run() {
	defer close(q.done)
	for item := range q.ch {
		q.wait.Observe(time.Since(item.at))
		start := time.Now()
		q.handler(item.alert)
		q.handle.Observe(time.Since(start))
		q.handled.Inc()
	}
}

// Enqueue hands one alert to the mitigation stage. In synchronous mode
// the handler runs inline; otherwise the alert joins the bounded queue,
// blocking when it is full. Alerts enqueued after Close are dropped (and
// counted), matching the pipeline's submit-after-close behavior.
func (q *MitigationQueue) Enqueue(a Alert) {
	q.life.RLock()
	defer q.life.RUnlock()
	if q.closed {
		q.dropped.Inc()
		return
	}
	// Count before the send: the worker may handle the alert before this
	// goroutine runs again, and Handled must never exceed Enqueued.
	q.enqueued.Inc()
	if q.cfg.Synchronous {
		start := time.Now()
		q.handler(a)
		q.handle.Observe(time.Since(start))
		q.handled.Inc()
		return
	}
	item := queuedAlert{alert: a, at: time.Now()}
	select {
	case q.ch <- item:
	default:
		// Full: block, visibly. The worker keeps draining (it only stops
		// once the channel is closed, and Close waits for our read lock),
		// so this send always completes.
		q.blocked.Inc()
		q.ch <- item
	}
}

// Close stops accepting new alerts, drains everything already accepted
// through the handler, and stops the worker. Idempotent.
func (q *MitigationQueue) Close() {
	q.life.Lock()
	if q.closed {
		q.life.Unlock()
		<-q.done
		return
	}
	q.closed = true
	if !q.cfg.Synchronous {
		close(q.ch)
	}
	q.life.Unlock()
	<-q.done
}

// Depth reports the number of alerts currently waiting.
func (q *MitigationQueue) Depth() int { return len(q.ch) }

// Snapshot reports the stage's counters.
func (q *MitigationQueue) Snapshot() stats.MitigationQueueSnapshot {
	s := stats.MitigationQueueSnapshot{
		Enqueued:    q.enqueued.Load(),
		Handled:     q.handled.Load(),
		Dropped:     q.dropped.Load(),
		Blocked:     q.blocked.Load(),
		QueueLen:    len(q.ch),
		QueueCap:    cap(q.ch),
		Wait:        q.wait.Snapshot(),
		Handle:      q.handle.Snapshot(),
		Synchronous: q.cfg.Synchronous,
	}
	if q.failures != nil {
		s.Failures = q.failures()
	}
	return s
}
