package controller

import (
	"errors"
	"io"
	"sync"
	"time"

	"artemis/internal/prefix"
	"artemis/internal/stats"
)

// ErrClosed is the outcome of a request the lane failed, unsent, because
// it was closed first.
var ErrClosed = errors.New("controller: lane closed")

// Lane is a live node's southbound: one goroutine hands route changes to
// an injector one at a time, in request order. Each request carries a
// not-before stamp, its request time plus the configuration delay; the
// delay is the same for every request, so FIFO order is due order and the
// lane only ever waits for its head. Each outcome goes to the done
// function passed with its request, so one lane serves every tenant of a
// node and each learns only of its own announcements.
//
// The lane keeps no history of actions (Controller, the experiments'
// model controller, does): a node learns outcomes through done and reads
// the failure count. Requests queue without bound, so a slow southbound
// never blocks the mitigation worker that asks; the injector's own
// timeout (RESTClient's) bounds how long each one can hold the lane.
type Lane struct {
	inj   RouteInjector
	delay time.Duration
	now   func() time.Duration

	mu       sync.Mutex
	pending  []laneRequest // oldest first
	closedAt time.Time     // zero until Close
	// wake (capacity 1) signals a new request or Close to the goroutine.
	wake chan struct{}
	done chan struct{}

	failures, cancelled stats.Counter
}

type laneRequest struct {
	kind ActionKind
	p    prefix.Prefix
	// requestedAt is on the lane's clock; due is the wall-clock
	// not-before stamp.
	requestedAt time.Duration
	due         time.Time
	done        func(Action)
}

// NewLane starts a lane over inj. delay is the configuration latency
// each request waits before it is sent; now stamps the actions passed to
// done. Close releases the goroutine.
func NewLane(inj RouteInjector, delay time.Duration, now func() time.Duration) *Lane {
	l := &Lane{inj: inj, delay: delay, now: now, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go l.run()
	return l
}

// Request queues one route change; done, when non-nil, receives the
// action on the lane's goroutine once the injector has tried it (or the
// lane failed it as closed). done must not block on the lane. A request
// made after Close is counted as cancelled and never reaches done.
func (l *Lane) Request(kind ActionKind, p prefix.Prefix, done func(Action)) {
	r := laneRequest{kind: kind, p: p, requestedAt: l.now(), due: time.Now().Add(l.delay), done: done}
	l.mu.Lock()
	closed := !l.closedAt.IsZero()
	if !closed {
		l.pending = append(l.pending, r)
	}
	l.mu.Unlock()
	if closed {
		l.failures.Inc()
		l.cancelled.Inc()
		return
	}
	l.signal()
}

func (l *Lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Close stops the lane. Requests already due when it is called are still
// sent, in order, until one fails; every other request fails with
// ErrClosed and is counted. An injector that is an io.Closer is closed
// first, so it can bound the calls still to come: a RESTClient ends them
// within one Timeout of its Close. So a controller that has stopped
// answering holds Close for at most one Timeout. Nothing is sent once
// Close returns. Idempotent.
func (l *Lane) Close() {
	l.mu.Lock()
	first := l.closedAt.IsZero()
	if first {
		l.closedAt = time.Now()
	}
	l.mu.Unlock()
	if c, ok := l.inj.(io.Closer); ok && first {
		c.Close()
	}
	l.signal()
	<-l.done
}

// Failures reports how many requests did not apply: the injector refused
// them or timed out, or the lane failed them as closed.
func (l *Lane) Failures() int64 { return l.failures.Load() }

// Cancelled reports how many of the failures were requests the lane
// never sent because it was closed.
func (l *Lane) Cancelled() int64 { return l.cancelled.Load() }

func (l *Lane) run() {
	defer close(l.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	broken := false // after Close, the first failed call fails the rest
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && l.closedAt.IsZero() {
			l.mu.Unlock()
			<-l.wake
			l.mu.Lock()
		}
		if len(l.pending) == 0 {
			l.mu.Unlock()
			return
		}
		r, closedAt := l.pending[0], l.closedAt
		wait := time.Until(r.due)
		if wait <= 0 || !closedAt.IsZero() {
			l.pending[0] = laneRequest{}
			l.pending = l.pending[1:]
		}
		l.mu.Unlock()
		if closedAt.IsZero() && wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-l.wake: // a new request or Close: look again
				timer.Stop()
			}
			continue
		}
		var err error
		if !closedAt.IsZero() && (broken || r.due.After(closedAt)) {
			err = ErrClosed
			l.cancelled.Inc()
		} else if err = apply(l.inj, r.kind, r.p); err != nil && !closedAt.IsZero() {
			broken = true
		}
		if err != nil {
			l.failures.Inc()
		}
		if r.done != nil {
			r.done(Action{Kind: r.kind, Prefix: r.p, RequestedAt: r.requestedAt, AppliedAt: l.now(), Err: err})
		}
	}
}
