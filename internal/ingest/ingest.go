// Package ingest is the supervised multi-source fan-in tier between the
// monitoring feeds and the detection pipeline. ARTEMIS's detection delay
// is "the min of the delays" across its sources (§2) — which only holds
// operationally if many feed connections can be fanned into one pipeline
// without the slowest or flakiest connection dragging the rest down. The
// supervisor owns N feed connections and provides what the raw clients do
// not:
//
//   - Per-source lifecycle: dial, health state (connecting / healthy /
//     degraded / dead), exponential-backoff reconnect with jitter, and hot
//     add/remove of sources at runtime.
//   - Cross-source dedup with first-wins semantics: the same route change
//     seen at the same vantage point via two sources (or two collectors)
//     is classified once, from whichever source delivered it first — so
//     adding sources reduces detection delay instead of multiplying sink
//     load. The seen-set is a bounded, TTL'd cache (internal/ttlset).
//   - Per-source backpressure accounting and an explicit drop policy:
//     each source owns a bounded queue and sheds its own load when it
//     falls behind; a stalled or flapping source never stalls the
//     pipeline or its sibling sources.
//   - Per-source counters and histograms (events, batches, dedup hits,
//     drops, reconnects, delivery latency EmittedAt-SeenAt), exported
//     through the /metrics endpoint via stats.IngestSnapshot.
package ingest

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/ring"
	"artemis/internal/stats"
	"artemis/internal/ttlset"
)

// State is a supervised source's lifecycle state.
type State uint32

const (
	// StateConnecting: the supervisor is dialing (first connect or
	// redial).
	StateConnecting State = iota
	// StateHealthy: connected and delivering.
	StateHealthy
	// StateDegraded: the connection failed; the supervisor is backing off
	// before the next dial.
	StateDegraded
	// StateDead: the source ended for good — removed, supervisor closed,
	// or retry budget exhausted.
	StateDead
	// StateFinished: a finite stream (MRT archive, eventlog replay)
	// completed normally with ErrDone. Terminal like StateDead — the
	// supervisor will not redial — but healthy: a finished replay is a
	// success, not an outage, and must not page anyone (Node.Health
	// treats finished sources as ok where dead live sources escalate).
	StateFinished
)

func (s State) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDead:
		return "dead"
	case StateFinished:
		return "finished"
	}
	return "unknown"
}

// Terminal reports whether the state is an end state the supervisor
// will not leave (no redial scheduled).
func (s State) Terminal() bool { return s == StateDead || s == StateFinished }

// ErrDone is returned by a Conn's Recv when a finite stream (an MRT
// archive replay, an eventlog replay, a scripted test feed) is
// complete: the supervisor marks the source finished — terminal but
// healthy — instead of redialing.
var ErrDone = errors.New("ingest: source stream complete")

// Conn is one live feed connection: Recv blocks for the next batch of
// events (emission order within the batch). A Recv may return both a
// final batch and an error. Close must unblock a pending Recv.
//
// The returned slice (and its events' Path slices) is only valid until
// the next Recv or Close call: connections are free to reuse one
// backing buffer across calls, and the built-in dialers do. The
// supervisor honors this by copying each batch into its own pooled
// storage before queueing (see Supervisor's pool), so a Conn never has
// a batch retained behind its back.
type Conn interface {
	Recv() ([]feedtypes.Event, error)
	Close() error
}

// Dialer establishes feed connections; the supervisor dials through it on
// every (re)connect.
type Dialer interface {
	Dial() (Conn, error)
}

// DialFunc adapts a function to the Dialer interface.
type DialFunc func() (Conn, error)

// Dial implements Dialer.
func (f DialFunc) Dial() (Conn, error) { return f() }

// Config tunes the supervisor. The zero value selects the noted defaults.
type Config struct {
	// QueueDepth bounds each source's pending-batch queue; beyond it the
	// source's drop policy applies (default 64).
	QueueDepth int
	// DedupTTL is how long a seen route change suppresses copies from
	// other sources (default 10min; negative disables dedup entirely).
	DedupTTL time.Duration
	// DedupMax caps the seen-set size; the oldest identity is evicted
	// beyond it (default 65536).
	DedupMax int
	// BackoffBase is the first reconnect delay (default 250ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 30s).
	BackoffMax time.Duration
	// MaxRetries bounds consecutive failed connection attempts before a
	// source is declared dead (0 = retry forever).
	MaxRetries int
	// Synchronous makes in-process sources (AddSource) deliver inline on
	// the publisher's goroutine — no queue, no supervisor goroutines.
	// The virtual-time experiments need this: an event's consequences
	// must be in place when the feed's publish returns. Dial sources are
	// unaffected.
	Synchronous bool
	// Seed seeds the backoff jitter (0 → 1); tests pin it for
	// reproducible schedules.
	Seed int64
	// AutoWiden closes coverage holes left by dead sources: when a source
	// reaches StateDead, every surviving source whose filter does not
	// already cover the dead source's watched prefixes has them merged
	// into its own filter. In-process sources are re-subscribed with the
	// widened filter immediately; dial sources are bounced so the redial
	// picks it up (their dialers must consult EffectiveFilter). Sources
	// whose filter the supervisor does not know (dial sources without a
	// Covers declaration) neither contribute a hole nor widen.
	AutoWiden bool
	// OnHealth, when non-nil, is invoked on every source lifecycle
	// transition (connecting→healthy, healthy→degraded, …). It runs on
	// the source's own goroutine and must not block or call back into the
	// supervisor; operators use it to surface degraded/dead sources as
	// alerts rather than just metrics.
	OnHealth func(HealthTransition)
}

// HealthTransition is one source lifecycle state change.
type HealthTransition struct {
	// ID and Name identify the source.
	ID   SourceID
	Name string
	// From and To are the states before and after the transition.
	From, To State
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DedupTTL == 0 {
		c.DedupTTL = 10 * time.Minute
	}
	if c.DedupMax <= 0 {
		c.DedupMax = 1 << 16
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SourceID identifies a supervised source; Remove detaches it.
type SourceID int

// Supervisor fans N feed sources into one delivery function (typically
// core.Pipeline.Submit, or SubmitWait in synchronous trials). It is safe
// for concurrent use.
type Supervisor struct {
	deliver func([]feedtypes.Event)
	cfg     Config

	dedup *dedupCache // nil when disabled

	// pool recycles the queued copies: every batch accepted into a source
	// queue is first deep-copied (events and AS paths) into a pooled
	// batch, because the producer's storage — a feed's pooled publish
	// batch, or a Conn's reused Recv buffer — is only valid for the
	// duration of the callback. The forwarder releases each copy after
	// delivery, so at steady state the fan-in path allocates nothing.
	pool *feedtypes.BatchPool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu      sync.Mutex
	sources map[SourceID]*source
	nextID  SourceID
	closed  bool
	wg      sync.WaitGroup
}

// New builds a supervisor delivering into deliver. deliver is called from
// per-source goroutines (or inline from publishers in Synchronous mode)
// and must be safe for concurrent use; the pipeline's Submit/SubmitWait
// both are. The slice passed to deliver is only valid for the duration of
// the call — the supervisor reuses its buffers — so a deliver that needs
// the events afterwards must copy them (the pipeline does).
func New(deliver func([]feedtypes.Event), cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		deliver: deliver,
		cfg:     cfg,
		pool:    feedtypes.NewBatchPool(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		sources: make(map[SourceID]*source),
	}
	if cfg.DedupTTL > 0 {
		s.dedup = newDedupCache(cfg.DedupTTL, cfg.DedupMax)
	}
	return s
}

// source is one supervised feed connection or in-process subscription.
type source struct {
	id   SourceID
	name string

	state atomic.Uint32

	// stop is closed exactly once when the source is removed or the
	// supervisor closes; it interrupts backoff sleeps and Recv loops.
	stop     chan struct{}
	stopOnce sync.Once

	// kick, when signalled, makes the dial loop skip its next backoff:
	// Bounce uses it so a deliberate redial (filter change) does not pay
	// an outage's penalty.
	kick chan struct{}

	// onHealth mirrors Config.OnHealth; setState dispatches transitions.
	onHealth func(HealthTransition)

	// blocking switches the enqueue policy from drop-newest to blocking —
	// for replay sources, whose "transport" can be flow-controlled.
	blocking bool

	// limit is the optional per-source token bucket (RateLimit). Only
	// the forwarder touches it, so it needs no lock.
	limit *tokenBucket

	// connMu guards the live connection so Remove/Close can unblock a
	// pending Recv.
	connMu sync.Mutex
	conn   Conn

	// cancel detaches an in-process subscription (nil for dial sources).
	cancel func()

	// feed is the in-process source being supervised (nil for dial
	// sources); auto-widening re-subscribes through it.
	feed feedtypes.Source
	// eff is the source's effective filter: the base subscription filter
	// (AddSource's, or a dial source's Covers declaration) plus any
	// coverage widened in from dead siblings. hasFilter marks it known.
	// Both are guarded by the supervisor's mu once registered.
	eff       feedtypes.Filter
	hasFilter bool

	// qmu guards qclosed for producers that outlive their cancel call
	// (hub callbacks may still be in flight when Remove returns), and
	// serializes those callbacks into the ring's single logical producer.
	qmu     sync.Mutex
	qclosed bool
	// queue is an SPSC ring of pooled batch copies; the forwarder is its
	// only consumer and releases each batch after delivery.
	queue *ring.Ring[*feedtypes.Batch]

	events, batches, dedupHits, drops, reconnects, rateShed stats.Counter
	latency                                                 *stats.Histogram
}

func (src *source) setState(st State) {
	was := State(src.state.Swap(uint32(st)))
	if was != st && src.onHealth != nil {
		src.onHealth(HealthTransition{ID: src.id, Name: src.name, From: was, To: st})
	}
}

// State reports the source's current lifecycle state.
func (src *source) getState() State { return State(src.state.Load()) }

// SourceOption customizes one source.
type SourceOption func(*source)

// Blocking makes the source's enqueue wait for queue space instead of
// dropping — correct for replay sources (MRT archives, captured batches)
// where losing events would falsify the replay and the producer can
// simply be paused. Live network sources should keep the default drop
// policy: stalling their reader would push backpressure into the remote
// server's slow-client handling instead. Only honored for dial sources.
func Blocking() SourceOption {
	return func(src *source) { src.blocking = true }
}

// RateLimit caps the source's delivery rate at eventsPerSec with a token
// bucket, de-prioritizing it relative to its siblings: a chatty or
// low-value feed can be pinned below the pipeline's capacity so it can
// never crowd out higher-priority sources. Blocking sources are paced
// (the forwarder waits for tokens, pushing backpressure into the
// source's flow-controlled queue); drop-policy sources shed over-limit
// batches, counted in the RateShed snapshot field. The burst allowance
// is two full receive batches, so a coalesced batch always fits and a
// quiet source keeps its low latency. Non-positive rates are ignored.
func RateLimit(eventsPerSec int) SourceOption {
	return func(src *source) {
		if eventsPerSec <= 0 {
			return
		}
		const burst = 2 * maxRecvBatch
		src.limit = &tokenBucket{rate: float64(eventsPerSec), burst: burst, tokens: burst}
	}
}

// Covers declares the filter a dial source's connections subscribe with.
// The supervisor cannot see a dialer's server-side subscription, so this
// is what the auto-widen bookkeeping (Config.AutoWiden) works from: it
// defines both the hole the source leaves behind when it dies and the
// base the survivors widen from. Dialers of covered sources should read
// EffectiveFilter at Dial time so a post-widen bounce reconnects with the
// merged filter. In-process sources get this automatically from their
// AddSource filter.
func Covers(f feedtypes.Filter) SourceOption {
	return func(src *source) {
		src.eff = f
		src.eff.Prefixes = append([]prefix.Prefix(nil), f.Prefixes...)
		src.hasFilter = true
	}
}

// tokenBucket is a per-source rate limiter. Only the source's forwarder
// goroutine touches it, so it needs no synchronization.
type tokenBucket struct {
	rate   float64 // tokens (events) added per second
	burst  float64 // cap on accumulated tokens
	tokens float64
	last   time.Time
}

// refill credits tokens for the time elapsed since the last call.
func (tb *tokenBucket) refill(now time.Time) {
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
}

// admit decides whether an n-event batch may be delivered now. For a
// blocking source it always returns true, first sleeping (interruptible
// by stop, so Close still drains promptly) until the bucket covers the
// debt; for a drop-policy source it returns false when the bucket lacks
// n tokens and the batch should be shed.
func (src *source) admit(n int) bool {
	tb := src.limit
	tb.refill(time.Now())
	if src.blocking {
		tb.tokens -= float64(n)
		if tb.tokens < 0 {
			wait := time.Duration(-tb.tokens / tb.rate * float64(time.Second))
			if src.sleepStop(wait) {
				tb.refill(time.Now())
			} else {
				// Stopping: deliver without pacing so the queue drains fast.
				tb.tokens = 0
			}
		}
		return true
	}
	if tb.tokens < float64(n) {
		return false
	}
	tb.tokens -= float64(n)
	return true
}

// sleepStop waits d unless the source is stopped first. Unlike sleep it
// ignores kicks: a Bounce must not consume the kick the dial loop relies
// on, and pacing is not a backoff to be skipped.
func (src *source) sleepStop(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-src.stop:
		return false
	case <-t.C:
		return true
	}
}

func (s *Supervisor) newSource(name string) *source {
	src := &source{
		name:     name,
		stop:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		queue:    ring.New[*feedtypes.Batch](s.cfg.QueueDepth),
		latency:  stats.NewHistogram(),
		onHealth: s.cfg.OnHealth,
	}
	if s.cfg.AutoWiden {
		// Every death — retry exhaustion, Remove, a replay source's stop —
		// triggers the coverage-hole check; widenFrom itself ignores
		// supervisor shutdown. Runs before the user's OnHealth so an
		// operator notified of the death already sees the widened state.
		user := src.onHealth
		src.onHealth = func(tr HealthTransition) {
			if tr.To == StateDead {
				s.widenFrom(src)
			}
			if user != nil {
				user(tr)
			}
		}
	}
	return src
}

// widenFrom closes the coverage hole a dead source leaves: every
// surviving source with a known filter absorbs the dead source's watched
// prefixes. In-process survivors are re-subscribed with the widened
// filter under the supervisor lock (events published in the gap are
// missed exactly as across any reconnect); dial survivors are bounced
// after the lock is released so their next Dial reads EffectiveFilter.
func (s *Supervisor) widenFrom(dead *source) {
	s.mu.Lock()
	if s.closed || !dead.hasFilter {
		s.mu.Unlock()
		return
	}
	hole := dead.eff
	var bounce []SourceID
	for _, src := range s.sources {
		if src == dead || !src.hasFilter || src.getState().Terminal() {
			continue
		}
		if !widenFilter(&src.eff, hole) {
			continue // already covers the hole
		}
		if src.cancel != nil && src.feed != nil {
			src.cancel()
			f := src.eff
			f.Prefixes = append([]prefix.Prefix(nil), f.Prefixes...)
			sub := src
			if s.cfg.Synchronous {
				src.cancel = subscribeBatches(src.feed, f, func(batch []feedtypes.Event) {
					s.deliverBatch(sub, batch)
				})
			} else {
				src.cancel = subscribeBatches(src.feed, f, func(batch []feedtypes.Event) {
					s.enqueueGuarded(sub, batch)
				})
			}
		} else if src.cancel == nil {
			bounce = append(bounce, src.id)
		}
	}
	s.mu.Unlock()
	for _, id := range bounce {
		s.Bounce(id)
	}
}

// widenFilter merges hole into dst, reporting whether dst changed. A
// filter that already matches everything never changes; a match-all hole
// turns dst into match-all.
func widenFilter(dst *feedtypes.Filter, hole feedtypes.Filter) bool {
	if dst.MatchAll() {
		return false
	}
	if hole.MatchAll() {
		dst.Prefixes = nil
		return true
	}
	changed := false
	for _, p := range hole.Prefixes {
		covered := false
		for _, w := range dst.Prefixes {
			if w == p ||
				(dst.MoreSpecific && w.Contains(p)) ||
				(dst.LessSpecific && p.Contains(w)) {
				covered = true
				break
			}
		}
		if !covered {
			dst.Prefixes = append(dst.Prefixes, p)
			changed = true
		}
	}
	if hole.MoreSpecific && !dst.MoreSpecific {
		dst.MoreSpecific = true
		changed = true
	}
	if hole.LessSpecific && !dst.LessSpecific {
		dst.LessSpecific = true
		changed = true
	}
	return changed
}

// EffectiveFilter returns a source's current filter: its base plus any
// coverage widened in from dead siblings (Config.AutoWiden). The second
// result is false for unknown sources and for dial sources that never
// declared Covers. Dialers serving a covered source should build their
// subscription from this at Dial time.
func (s *Supervisor) EffectiveFilter(id SourceID) (feedtypes.Filter, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.sources[id]
	if !ok || !src.hasFilter {
		return feedtypes.Filter{}, false
	}
	f := src.eff
	f.Prefixes = append([]prefix.Prefix(nil), f.Prefixes...)
	return f, true
}

// register assigns an id and installs the source; reports false when the
// supervisor is closed. Must be called with s.mu held.
func (s *Supervisor) registerLocked(src *source, goroutines int) bool {
	if s.closed {
		return false
	}
	src.id = s.nextID
	s.nextID++
	s.sources[src.id] = src
	s.wg.Add(goroutines)
	return true
}

// AddDialer supervises a dial-based source: the supervisor dials, reads
// batches, redials on failure with exponential backoff and jitter, and
// feeds the source's bounded queue. Returns -1 if the supervisor is
// already closed.
func (s *Supervisor) AddDialer(name string, d Dialer, opts ...SourceOption) SourceID {
	src := s.newSource(name)
	for _, o := range opts {
		o(src)
	}
	s.mu.Lock()
	ok := s.registerLocked(src, 2)
	s.mu.Unlock()
	if !ok {
		return -1
	}
	go s.runDial(src, d)
	go s.forward(src)
	return src.id
}

// AddSource supervises an in-process feed (anything implementing
// feedtypes.Source; batch-capable sources are subscribed batch-wise).
// In Synchronous mode delivery happens inline on the publisher's
// goroutine; otherwise batches flow through the source's bounded queue
// like a dial source's. Returns -1 if the supervisor is already closed.
//
// The subscription is made (and src.cancel assigned) under the
// supervisor lock, before a concurrent Close/Remove can observe the
// source — otherwise they could see a nil cancel and leave the
// subscription attached (and the forward goroutine waiting) forever.
func (s *Supervisor) AddSource(name string, feed feedtypes.Source, f feedtypes.Filter) SourceID {
	src := s.newSource(name)
	src.feed = feed
	src.eff = f
	src.eff.Prefixes = append([]prefix.Prefix(nil), f.Prefixes...)
	src.hasFilter = true
	s.mu.Lock()
	if s.cfg.Synchronous {
		if !s.registerLocked(src, 0) {
			s.mu.Unlock()
			return -1
		}
		src.setState(StateHealthy)
		src.cancel = subscribeBatches(feed, f, func(batch []feedtypes.Event) {
			s.deliverBatch(src, batch)
		})
		s.mu.Unlock()
		return src.id
	}
	if !s.registerLocked(src, 1) {
		s.mu.Unlock()
		return -1
	}
	src.setState(StateHealthy)
	src.cancel = subscribeBatches(feed, f, func(batch []feedtypes.Event) {
		s.enqueueGuarded(src, batch)
	})
	s.mu.Unlock()
	go s.forward(src)
	return src.id
}

// subscribeBatches attaches fn to feed at batch granularity, adapting
// per-event sources.
func subscribeBatches(feed feedtypes.Source, f feedtypes.Filter, fn func([]feedtypes.Event)) func() {
	if bs, ok := feed.(feedtypes.BatchSource); ok {
		return bs.SubscribeBatch(f, fn)
	}
	return feed.Subscribe(f, func(ev feedtypes.Event) { fn([]feedtypes.Event{ev}) })
}

// Bounce forces a dial source to drop its connection and redial
// immediately, skipping the backoff schedule. Live reconfiguration uses
// it: a dialer that captures its filter at Dial time (server-side
// subscriptions like RIS, or client-side filters bound per connection
// like BGPmon) picks up the new filter on the redial. Already-queued
// batches still drain; events the remote emits during the redial window
// are missed from this source exactly as they would be across any
// reconnect — the cross-source dedup's first-wins semantics mean a
// sibling source covering the same vantage points fills the gap.
// In-process and unknown sources are no-ops.
func (s *Supervisor) Bounce(id SourceID) {
	s.mu.Lock()
	src, ok := s.sources[id]
	s.mu.Unlock()
	if !ok || src.cancel != nil {
		return
	}
	// Read the connection and kick under one connMu hold. Kicking first
	// would let the dial loop wake, redial and install a fresh connection
	// before the read, and Bounce would close the connection its own kick
	// produced, leaving the source degraded for a whole backoff.
	src.connMu.Lock()
	c := src.conn
	select {
	case src.kick <- struct{}{}:
	default: // a kick is already pending
	}
	src.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Remove hot-removes a source: its connection is closed (or subscription
// cancelled), queued batches still drain, and it disappears from future
// snapshots. Unknown ids are no-ops.
func (s *Supervisor) Remove(id SourceID) {
	s.mu.Lock()
	src, ok := s.sources[id]
	if ok {
		delete(s.sources, id)
	}
	s.mu.Unlock()
	if ok {
		s.stopSource(src)
	}
}

// stopSource signals the source's goroutines and unblocks anything
// pending. Idempotent.
func (s *Supervisor) stopSource(src *source) {
	src.stopOnce.Do(func() { close(src.stop) })
	if src.cancel != nil {
		// In-process source: detach from the hub, then retire the queue.
		// Publishes already in flight are absorbed by the qclosed guard.
		src.cancel()
		src.closeQueue()
		src.setState(StateDead)
		return
	}
	// Dial source: closing the live conn unblocks Recv; the reader
	// goroutine observes stop and retires the queue itself.
	src.connMu.Lock()
	c := src.conn
	src.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Close stops every source, waits for queued batches to drain into the
// pipeline, and releases all supervisor goroutines. Sources stay visible
// in Snapshot with their final counters. Idempotent.
func (s *Supervisor) Close() {
	s.mu.Lock()
	s.closed = true
	srcs := make([]*source, 0, len(s.sources))
	for _, src := range s.sources {
		srcs = append(srcs, src)
	}
	s.mu.Unlock()
	for _, src := range srcs {
		s.stopSource(src)
	}
	s.wg.Wait()
}

// Wait blocks until every source's goroutines have exited. Meaningful for
// finite (replay) sources, which end with ErrDone; live sources only exit
// on Remove or Close.
func (s *Supervisor) Wait() { s.wg.Wait() }

// runDial is a dial source's connection loop: dial, stream, and on any
// failure back off exponentially (with jitter) before redialing. The
// backoff resets once a connection delivers, so a healthy reconnect does
// not inherit an outage's ceiling.
func (s *Supervisor) runDial(src *source, d Dialer) {
	defer s.wg.Done()
	defer src.closeQueue()
	backoff := s.cfg.BackoffBase
	fails := 0
	attempt := 0
	for {
		select {
		case <-src.stop:
			src.setState(StateDead)
			return
		default:
		}
		if attempt > 0 {
			src.reconnects.Inc()
		}
		attempt++
		src.setState(StateConnecting)
		conn, err := d.Dial()
		if err == nil {
			// Install under connMu, re-checking stop: a Remove/Close that
			// ran while Dial was in flight saw a nil conn and closed
			// nothing, so a connection installed blindly here would block
			// in Recv with nobody left to close it.
			src.connMu.Lock()
			select {
			case <-src.stop:
				src.connMu.Unlock()
				conn.Close()
				src.setState(StateDead)
				return
			default:
			}
			select {
			case <-src.kick:
				// A bounce arrived while this dial was in flight, so the
				// connection may have been established with a stale filter.
				// Drop it and redial: Dial reads its filter provider per
				// call, so the retry is guaranteed to see post-bounce state.
				src.connMu.Unlock()
				conn.Close()
				fails, backoff = 0, s.cfg.BackoffBase
				continue
			default:
			}
			src.conn = conn
			src.connMu.Unlock()
			src.setState(StateHealthy)
			var delivered bool
			delivered, err = s.stream(src, conn)
			src.connMu.Lock()
			src.conn = nil
			src.connMu.Unlock()
			conn.Close()
			if errors.Is(err, ErrDone) {
				src.setState(StateFinished)
				return
			}
			if delivered {
				// The connection was productive: the next outage starts
				// its backoff schedule from the base, not wherever the
				// previous outage left it.
				fails, backoff = 0, s.cfg.BackoffBase
			}
		}
		select {
		case <-src.stop:
			src.setState(StateDead)
			return
		default:
		}
		select {
		case <-src.kick:
			// Deliberate bounce (filter change): redial immediately and
			// don't let it count against the retry budget.
			fails, backoff = 0, s.cfg.BackoffBase
			continue
		default:
		}
		fails++
		if s.cfg.MaxRetries > 0 && fails >= s.cfg.MaxRetries {
			src.setState(StateDead)
			return
		}
		src.setState(StateDegraded)
		if !src.sleep(s.jitter(backoff)) {
			src.setState(StateDead)
			return
		}
		if backoff *= 2; backoff > s.cfg.BackoffMax {
			backoff = s.cfg.BackoffMax
		}
	}
}

// stream drains one connection into the source queue until it errors,
// reporting whether it delivered anything.
func (s *Supervisor) stream(src *source, conn Conn) (delivered bool, err error) {
	for {
		batch, err := conn.Recv()
		if len(batch) > 0 {
			delivered = true
			s.enqueue(src, batch)
		}
		if err != nil {
			return delivered, err
		}
	}
}

// copyIn snapshots batch into a pooled batch the queue can own: the
// producer's storage (a Conn's reused Recv buffer, a feed's pooled
// publish batch) is only valid for the duration of the callback, and the
// queue outlives it. This copy is what fixes the old retained-batch bug:
// the queue used to hold the producer's slice itself, which a pooling
// producer would overwrite before the forwarder delivered it.
func (s *Supervisor) copyIn(batch []feedtypes.Event) *feedtypes.Batch {
	b := s.pool.Get()
	b.AppendEvents(batch)
	return b
}

// enqueue applies the source's queue policy. Only the dial reader calls
// it, so it never races with the reader's own closeQueue.
func (s *Supervisor) enqueue(src *source, batch []feedtypes.Event) {
	b := s.copyIn(batch)
	if src.blocking {
		// Push blocks for backpressure and only fails once the ring is
		// closed. The forwarder drains the ring until it is closed, and for
		// a dial source the ring is closed by this same goroutine (runDial's
		// defer), so a blocked Push always completes — a flow-controlled
		// replay loses nothing even across Remove/Close.
		if !src.queue.Push(b) {
			src.drops.Add(int64(len(batch)))
			b.Release()
		}
		return
	}
	if !src.queue.TryPush(b) {
		// Queue full: this source sheds its own load. Siblings and the
		// pipeline are unaffected.
		src.drops.Add(int64(len(batch)))
		b.Release()
	}
}

// enqueueGuarded is the in-process variant: hub callbacks may run
// concurrently with Remove (and with each other, when several publishers
// share a hub), so the closed check and the push are under one lock —
// which also makes the callbacks the ring's single logical producer.
func (s *Supervisor) enqueueGuarded(src *source, batch []feedtypes.Event) {
	src.qmu.Lock()
	defer src.qmu.Unlock()
	if src.qclosed {
		src.drops.Add(int64(len(batch)))
		return
	}
	b := s.copyIn(batch)
	if !src.queue.TryPush(b) {
		src.drops.Add(int64(len(batch)))
		b.Release()
	}
}

func (src *source) closeQueue() {
	src.qmu.Lock()
	if !src.qclosed {
		src.qclosed = true
		src.queue.Close()
	}
	src.qmu.Unlock()
}

// sleep waits d unless the source is stopped first. A Bounce during the
// wait (kick) ends it early: the backoff is deliberately skipped so a
// filter change reaches a degraded source as fast as a healthy one, and
// consuming the kick here keeps it from later dropping the fresh
// connection at install time.
func (src *source) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-src.stop:
		return false
	case <-src.kick:
		return true
	case <-t.C:
		return true
	}
}

// jitter spreads reconnect storms: d plus 0–50%.
func (s *Supervisor) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	f := s.rng.Float64()
	s.rngMu.Unlock()
	return d + time.Duration(f*0.5*float64(d))
}

// forward is a source's delivery loop: dedup, account, hand to the
// pipeline. It drains the queue fully after the source stops, so accepted
// batches are never lost on Remove/Close. The scratch buffer absorbs the
// dedup's copy-on-write without a per-batch allocation: the forwarder is
// the source's only delivery goroutine and deliver must not retain the
// slice, so the buffer can be reused immediately.
func (s *Supervisor) forward(src *source) {
	defer s.wg.Done()
	var scratch []feedtypes.Event
	for {
		b, ok := src.queue.Pop()
		if !ok {
			return
		}
		if src.limit != nil && !src.admit(len(b.Events)) {
			src.rateShed.Add(int64(len(b.Events)))
			b.Release()
			continue
		}
		scratch = s.deliverBatchBuf(src, b.Events, scratch)
		// The delivered slice must not be retained by deliver (the
		// pipeline deep-copies), so the pooled copy can be recycled now.
		b.Release()
	}
}

// deliverBatch runs the delivery path without buffer reuse — the inline
// (synchronous in-process) entry point, where concurrent publishers may
// share the source.
func (s *Supervisor) deliverBatch(src *source, batch []feedtypes.Event) {
	s.deliverBatchBuf(src, batch, nil)
}

// deliverBatchBuf dedups batch (reusing buf for the filtered copy when
// one is needed), accounts it, and hands it to deliver. It returns the
// scratch buffer for the caller to reuse.
func (s *Supervisor) deliverBatchBuf(src *source, batch []feedtypes.Event, buf []feedtypes.Event) []feedtypes.Event {
	if s.dedup != nil {
		out := s.dedup.filter(batch, &src.dedupHits, buf)
		if len(out) != len(batch) {
			buf = out // the filter copied into (and possibly grew) buf
		}
		batch = out
	}
	if len(batch) == 0 {
		return buf
	}
	for i := range batch {
		src.latency.Observe(batch[i].EmittedAt - batch[i].SeenAt)
	}
	src.events.Add(int64(len(batch)))
	src.batches.Inc()
	s.deliver(batch)
	return buf
}

// Snapshot reports every supervised source's counters plus the dedup
// cache occupancy.
func (s *Supervisor) Snapshot() stats.IngestSnapshot {
	s.mu.Lock()
	srcs := make([]*source, 0, len(s.sources))
	for _, src := range s.sources {
		srcs = append(srcs, src)
	}
	s.mu.Unlock()
	for i := 1; i < len(srcs); i++ { // insertion sort by id; N is small
		for j := i; j > 0 && srcs[j-1].id > srcs[j].id; j-- {
			srcs[j-1], srcs[j] = srcs[j], srcs[j-1]
		}
	}
	snap := stats.IngestSnapshot{DedupSize: -1}
	if s.dedup != nil {
		snap.DedupSize = s.dedup.size()
	}
	for _, src := range srcs {
		snap.Sources = append(snap.Sources, stats.IngestSourceSnapshot{
			ID:         int(src.id),
			Name:       src.name,
			State:      src.getState().String(),
			Events:     src.events.Load(),
			Batches:    src.batches.Load(),
			DedupHits:  src.dedupHits.Load(),
			Drops:      src.drops.Load(),
			RateShed:   src.rateShed.Load(),
			Reconnects: src.reconnects.Load(),
			QueueLen:   src.queue.Len(),
			QueueCap:   src.queue.Cap(),
			Latency:    src.latency.Snapshot(),
		})
	}
	return snap
}

// SourceState reports one source's lifecycle state (StateDead for unknown
// ids).
func (s *Supervisor) SourceState(id SourceID) State {
	s.mu.Lock()
	src, ok := s.sources[id]
	s.mu.Unlock()
	if !ok {
		return StateDead
	}
	return src.getState()
}

// --- cross-source dedup ---

// keyOf reduces a route change's identity — the vantage point, what
// changed (kind, prefix, path), and when the vantage point's route
// changed — to a 64-bit FNV-1a fingerprint. Source, collector and
// emission time are deliberately excluded: those differ between copies of
// the same change delivered by different feeds. Two distinct changes
// collide with probability ~2^-64; the fingerprint keeps the seen-set's
// per-copy cost to one cheap hash and one small-key map operation, which
// is what lets 8-source fan-in track single-source throughput
// (BenchmarkIngestFanIn).
func keyOf(ev *feedtypes.Event) uint64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(ev.VantagePoint)) * prime
	h = (h ^ uint64(ev.Kind)) * prime
	// The prefix folds in as its full dual-stack identity: 128 address bits
	// plus a family tag packed beside the length (prefix.FoldIdentity), so
	// a v4 prefix and the numerically identical v4-mapped v6 prefix
	// fingerprint differently.
	h = prefix.FoldIdentity(h, ev.Prefix)
	h = (h ^ uint64(ev.SeenAt)) * prime
	for _, as := range ev.Path {
		h = (h ^ uint64(as)) * prime
	}
	// Finalize so the low bits (shard index) depend on every field.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// dedupShards spreads the seen-set over independently locked shards so
// concurrent forwarders don't serialize on one mutex.
const dedupShards = 16

// dedupCache is the shared first-wins seen-set, sharded by fingerprint.
type dedupCache struct {
	shards [dedupShards]struct {
		mu  sync.Mutex
		set *ttlset.Set[uint64]
	}
}

func newDedupCache(ttl time.Duration, max int) *dedupCache {
	d := &dedupCache{}
	per := max / dedupShards
	if per < 1 {
		per = 1
	}
	for i := range d.shards {
		d.shards[i].set = ttlset.New[uint64](ttl, per)
	}
	return d
}

// add records one event's identity, reporting whether it was fresh.
func (d *dedupCache) add(ev *feedtypes.Event) bool {
	k := keyOf(ev)
	sh := &d.shards[k%dedupShards]
	sh.mu.Lock()
	fresh := sh.set.Add(k, ev.EmittedAt)
	sh.mu.Unlock()
	return fresh
}

// filter returns the events of batch not already seen, preserving order.
// Like feedtypes.FilterEvents it returns the batch unchanged (no copy)
// when everything is fresh — the common case once sources stop
// overlapping — and never mutates the shared input. When a copy is
// needed it appends into buf (which may be nil), so a caller owning a
// scratch buffer pays no allocation. hits is incremented once per
// suppressed event.
func (d *dedupCache) filter(batch []feedtypes.Event, hits *stats.Counter, buf []feedtypes.Event) []feedtypes.Event {
	n := 0
	for n < len(batch) && d.add(&batch[n]) {
		n++
	}
	if n == len(batch) {
		return batch
	}
	hits.Inc()
	out := append(buf[:0], batch[:n]...)
	for i := n + 1; i < len(batch); i++ {
		if d.add(&batch[i]) {
			out = append(out, batch[i])
		} else {
			hits.Inc()
		}
	}
	return out
}

func (d *dedupCache) size() int {
	total := 0
	for i := range d.shards {
		d.shards[i].mu.Lock()
		total += d.shards[i].set.Len()
		d.shards[i].mu.Unlock()
	}
	return total
}
