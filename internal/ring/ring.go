// Package ring provides the bounded single-producer/single-consumer
// queue used on the event hot path: the job queue of the detection
// pipeline and the per-source batch queues of the ingest supervisor. It replaces Go channels (internally a mutex-guarded
// circular buffer) on paths where the producer and consumer are known
// and allocation-free steady-state operation is required: a Ring never
// allocates after construction, and the uncontended Push/Pop fast path
// is two atomic loads, one slot write and one atomic store — no lock
// acquisition at all.
//
// # Ownership and concurrency contract
//
// A Ring is safe for exactly one concurrent producer and one concurrent
// consumer:
//
//   - The producer side (Push, TryPush, Close) must be serialized by the
//     caller: one goroutine, or several goroutines holding a caller-owned
//     lock. The pipeline serializes its submitters with a mutex; the
//     ingest supervisor's producer is the single dial-reader
//     goroutine (or hub callbacks under the source's queue lock).
//   - The consumer side (Pop, TryPop) must likewise be serialized; in
//     this repo every ring has exactly one consumer goroutine.
//
// Close is a producer-side operation: after Close, Push/TryPush return
// false, while the consumer drains the remaining items and then sees
// Pop return ok=false. Values already pushed are never lost — close
// semantics match a closed Go channel's.
//
// Memory ordering: the slot write in Push happens-before the matching
// read in Pop (the tail store/load pair is a release/acquire edge via
// sync/atomic), so values transfer between goroutines without extra
// synchronization, and the race detector understands the handoff.
package ring

import (
	"sync/atomic"
)

// Ring is a bounded single-producer/single-consumer queue. The zero
// value is not usable; use New.
type Ring[T any] struct {
	buf  []T
	mask uint64

	// head is the consumer cursor (next slot to pop); tail the producer
	// cursor (next slot to push). tail-head is the occupancy. Padded to
	// separate cache lines so the producer's tail stores do not
	// false-share with the consumer's head stores.
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
	_    [56]byte

	closed atomic.Bool
	// done is closed by Close and wakes any blocked Push/Pop.
	done chan struct{}
	// notEmpty/notFull carry at most one wake token each: the producer
	// tokens notEmpty after a push, the consumer tokens notFull after a
	// pop. With one waiter per side a single-token channel cannot lose a
	// wakeup: the waiter re-checks the cursors in a loop after every
	// receive.
	notEmpty chan struct{}
	notFull  chan struct{}
}

// New returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func New[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{
		buf:      make([]T, n),
		mask:     uint64(n - 1),
		done:     make(chan struct{}),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

// Cap reports the ring's fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len reports the current occupancy. It is exact when called from the
// producer or consumer goroutine and a point-in-time estimate otherwise
// (the metrics scrape path).
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h { // torn read under concurrent pop; clamp
		return 0
	}
	return int(t - h)
}

// Closed reports whether Close has been called.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// TryPush appends v if there is room, reporting success. It returns
// false when the ring is full or closed.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.tail.Load()
	if t-r.head.Load() > r.mask {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	r.wake(r.notEmpty)
	return true
}

// Push appends v, blocking while the ring is full. It reports false —
// without having enqueued v — once the ring is closed.
func (r *Ring[T]) Push(v T) bool {
	for {
		if r.closed.Load() {
			return false
		}
		t := r.tail.Load()
		if t-r.head.Load() <= r.mask {
			r.buf[t&r.mask] = v
			r.tail.Store(t + 1)
			r.wake(r.notEmpty)
			return true
		}
		select {
		case <-r.notFull:
		case <-r.done:
		}
	}
}

// TryPop removes the oldest value if one is buffered. ok is false when
// the ring is currently empty (closed or not).
func (r *Ring[T]) TryPop() (v T, ok bool) {
	h := r.head.Load()
	if r.tail.Load() == h {
		return v, false
	}
	return r.take(h), true
}

// Pop removes the oldest value, blocking while the ring is empty. After
// Close it keeps returning buffered values until the ring is drained,
// then reports ok=false — the consumer never loses an accepted value.
func (r *Ring[T]) Pop() (v T, ok bool) {
	for {
		h := r.head.Load()
		if r.tail.Load() != h {
			return r.take(h), true
		}
		if r.closed.Load() {
			// Closed, but re-check emptiness with a fresh tail: the
			// producer's final pushes happen-before its Close, so a
			// closed observation with a stale tail must reload before
			// declaring the ring drained.
			if r.tail.Load() != h {
				continue
			}
			return v, false
		}
		select {
		case <-r.notEmpty:
		case <-r.done:
		}
	}
}

// take pops the slot at h; the caller has verified it is occupied.
func (r *Ring[T]) take(h uint64) T {
	var zero T
	v := r.buf[h&r.mask]
	// Clear the slot so the ring does not pin pooled batches (or their
	// arenas) past consumption.
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	r.wake(r.notFull)
	return v
}

// wake deposits a token without blocking; a full token channel already
// guarantees the waiter will re-check.
func (r *Ring[T]) wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Close marks the ring closed and wakes blocked producers and consumers.
// It belongs to the producer side: callers must serialize it with their
// pushes (push-after-close returns false, but a concurrent
// push-racing-close would race on the buffered values' visibility).
// Idempotent.
func (r *Ring[T]) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.done)
	}
}
