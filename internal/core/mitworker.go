package core

import (
	"sync"
	"time"

	"artemis/internal/stats"
)

// MitigationQueue is a live node's one mitigation worker: every tenant's
// alerts wait here, each with the mitigator of the tenant that raised
// it, and one goroutine hands them to their mitigators in enqueue order.
// Handling an alert only queues its announcements on the southbound lane
// (controller.Lane), which sends them on a goroutine of its own, so a
// slow controller never holds the worker. The queue exists for detection
// latency: with it deleted and the handler run at alert commit (after
// the alert observers), 30 s end-to-end runs on a 2-vCPU guest measured
// glass-mixed detect p50 at 0.762 ms against 0.548 ms with the queue (5
// alternating pairs, every run without it slower) and ris-paced at 0.815
// against 0.514 ms, while mitigate p50 moved only 0.740 -> 0.717 and
// 0.763 -> 0.744 ms. The likely cause, not traced: on the daemon's one
// busy CPU the southbound POST goroutine ran before the alert's SSE
// writer.
//
//   - Ordered: alerts are handled in enqueue order — the order the sink
//     committed them, across tenants — so mitigation records and
//     southbound requests stay deterministic.
//   - Bounded, explicit backpressure: when the queue is full, Enqueue
//     blocks the caller (no silent dropping; the pipeline's own
//     backpressure then propagates to the feeds). Blocked enqueues are
//     counted so the condition is visible in /metrics.
//   - Drained on Close: alerts already accepted are always handled.
//
// A Service built without a queue handles its alerts inline instead:
// the virtual-time experiments' semantics.
type MitigationQueue struct {
	// life guards the enqueue/close race exactly like the pipeline's:
	// enqueuers hold it shared, Close takes it exclusive to flip closed
	// and close the channel.
	life   sync.RWMutex
	closed bool
	ch     chan queuedAlert
	done   chan struct{}

	enqueued, handled, dropped, blocked stats.Counter
	wait, handle                        *stats.Histogram
}

type queuedAlert struct {
	m     *Mitigator
	alert Alert
	at    time.Time
}

// NewMitigationQueue starts a queue of depth waiting alerts (default 64
// when depth <= 0) and its worker goroutine. Close releases the worker.
func NewMitigationQueue(depth int) *MitigationQueue {
	if depth <= 0 {
		depth = 64
	}
	q := &MitigationQueue{
		ch:     make(chan queuedAlert, depth),
		done:   make(chan struct{}),
		wait:   stats.NewHistogram(),
		handle: stats.NewHistogram(),
	}
	go q.run()
	return q
}

func (q *MitigationQueue) run() {
	defer close(q.done)
	for item := range q.ch {
		q.wait.Observe(time.Since(item.at))
		start := time.Now()
		item.m.HandleAlert(item.alert)
		q.handle.Observe(time.Since(start))
		q.handled.Inc()
	}
}

// Enqueue hands one alert to m's mitigation, blocking while the queue is
// full. Alerts enqueued after Close are dropped (and counted), matching
// the pipeline's submit-after-close behavior.
func (q *MitigationQueue) Enqueue(m *Mitigator, a Alert) {
	q.life.RLock()
	defer q.life.RUnlock()
	if q.closed {
		q.dropped.Inc()
		return
	}
	// Count before the send: the worker may handle the alert before this
	// goroutine runs again, and Handled must never exceed Enqueued.
	q.enqueued.Inc()
	item := queuedAlert{m: m, alert: a, at: time.Now()}
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
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.life.Unlock()
	<-q.done
}

// Snapshot reports the stage's counters; Failures is left to the caller,
// which owns the mitigators.
func (q *MitigationQueue) Snapshot() stats.MitigationQueueSnapshot {
	return stats.MitigationQueueSnapshot{
		Enqueued: q.enqueued.Load(),
		Handled:  q.handled.Load(),
		Dropped:  q.dropped.Load(),
		Blocked:  q.blocked.Load(),
		QueueLen: len(q.ch),
		QueueCap: cap(q.ch),
		Wait:     q.wait.Snapshot(),
		Handle:   q.handle.Snapshot(),
	}
}
