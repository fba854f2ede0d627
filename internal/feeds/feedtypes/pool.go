package feedtypes

import (
	"sync"
	"sync/atomic"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Batch is a reusable event batch: an Events slice plus a flat AS-path
// arena the events' Path fields can alias. Feeds build their per-flush
// batches in one, publish Events, and return the whole thing to a
// BatchPool — at steady state the feed→hub→pipeline path then performs
// zero allocations per batch, because both the event storage and every
// AS path live in recycled backing arrays.
//
// # Ownership
//
// A Batch obtained from BatchPool.Get is owned by the caller until it
// is released with Release (or BatchPool.Put). Releasing transfers
// ownership back to the pool: the batch, its Events slice, and every
// path obtained from NewPath/AppendPath become invalid immediately —
// the pool will hand the same backing arrays to the next Get. The
// standard lifecycle for a feed is
//
//	b := pool.Get()
//	... b.Append / b.NewPath per event ...
//	hub.Publish(b.Events)
//	b.Release()
//
// which is safe because Hub.Publish is synchronous: subscribers run
// inside Publish and must not retain the slice (see Hub). Consumers
// that need events past the callback — queues, stores, alert logs —
// must deep-copy, including the Path slices (CopyEvents does both).
type Batch struct {
	// Events is the batch under construction, in emission order.
	Events []Event
	// paths is the flat AS-path arena. Growing it can reallocate; paths
	// handed out before a growth keep pointing into the old backing
	// array, which stays valid until the batch is released.
	paths []bgp.ASN
	pool  *BatchPool
}

// Reset empties the batch for reuse, keeping its backing arrays.
func (b *Batch) Reset() {
	clearEvents(b.Events)
	b.Events = b.Events[:0]
	b.paths = b.paths[:0]
}

// Append adds ev to the batch as-is. The event's Path is aliased, not
// copied: use it when the path already lives in this batch's arena
// (NewPath/AppendPath) or when ownership of the slice transfers to the
// batch. Use AppendCopy when the source retains the path.
func (b *Batch) Append(ev Event) {
	b.Events = append(b.Events, ev)
}

// AppendCopy adds ev with its Path deep-copied into the batch's arena,
// so the caller remains free to reuse its own path storage.
func (b *Batch) AppendCopy(ev Event) {
	if len(ev.Path) > 0 {
		ev.Path = b.AppendPath(ev.Path)
	}
	b.Events = append(b.Events, ev)
}

// AppendEvents bulk-appends evs with every Path deep-copied into the
// arena — the "take a snapshot of a published batch" operation for
// consumers that queue events past the publisher's callback.
func (b *Batch) AppendEvents(evs []Event) {
	for i := range evs {
		b.AppendCopy(evs[i])
	}
}

// NewPath reserves an n-element AS path in the batch's arena and
// returns it for the caller to fill. The returned slice has capacity
// exactly n: appending to it copies out of the arena instead of
// corrupting a neighboring path.
func (b *Batch) NewPath(n int) []bgp.ASN {
	start := len(b.paths)
	if start+n <= cap(b.paths) {
		b.paths = b.paths[:start+n]
	} else {
		b.paths = append(b.paths, make([]bgp.ASN, n)...)
	}
	return b.paths[start : start+n : start+n]
}

// AppendPath copies path into the arena and returns the arena-backed
// copy.
func (b *Batch) AppendPath(path []bgp.ASN) []bgp.ASN {
	p := b.NewPath(len(path))
	copy(p, path)
	return p
}

// Release returns the batch to the pool it came from (a no-op for a
// batch not obtained from a pool). The batch and everything it handed
// out become invalid; see the Batch ownership contract.
func (b *Batch) Release() {
	if b.pool != nil {
		b.pool.Put(b)
	}
}

// BatchPool recycles Batches through a sync.Pool so the steady-state
// event path performs no per-batch allocations: after a warmup in which
// Events slices and path arenas grow to the workload's high-water mark,
// Get and Put just move pointers.
//
// The pool is safe for concurrent use. The zero value is ready to use.
type BatchPool struct {
	pool sync.Pool

	// poison, when set, makes Put overwrite released storage with
	// sentinel values. See SetPoison.
	poison atomic.Bool
}

// NewBatchPool returns an empty pool.
func NewBatchPool() *BatchPool { return &BatchPool{} }

// Get returns an empty batch owned by the caller. The batch's backing
// arrays are recycled from previously released batches when available.
func (p *BatchPool) Get() *Batch {
	if b, ok := p.pool.Get().(*Batch); ok && b != nil {
		return b
	}
	return &Batch{pool: p}
}

// Put releases b back to the pool. The caller must not touch b, its
// Events, or any arena path after Put returns. Put(nil) is a no-op.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	b.Reset()
	if p.poison.Load() {
		poisonEvents(b.Events[:cap(b.Events)])
		arena := b.paths[:cap(b.paths)]
		for i := range arena {
			arena[i] = PoisonASN
		}
	}
	b.pool = p
	p.pool.Put(b)
}

// SetPoison toggles poisoning: when enabled, every released batch's
// storage — the full capacity of its Events slice and path arena — is
// overwritten with sentinel values (prefix PoisonPrefix, AS paths of
// PoisonASN) before recycling. A consumer that illegally retained a
// released batch then observes the sentinels instead of silently
// reading stale (or worse, plausibly fresh) data. Tests enable it to
// turn use-after-release bugs into deterministic failures; production
// pools leave it off.
func (p *BatchPool) SetPoison(on bool) { p.poison.Store(on) }

// PoisonASN is the sentinel AS number poisoning writes into released
// path arenas.
const PoisonASN = bgp.ASN(0xDEADA5A5)

// PoisonPrefix is the sentinel prefix poisoning writes into released
// events.
var PoisonPrefix = prefix.MustParse("192.0.2.0/32")

// poisonEvents overwrites evs with recognizable garbage.
func poisonEvents(evs []Event) {
	for i := range evs {
		evs[i] = Event{
			Source:       "poisoned",
			Collector:    "poisoned",
			VantagePoint: bgp.ASN(PoisonASN),
			Kind:         Announce,
			Prefix:       PoisonPrefix,
			SeenAt:       -1,
			EmittedAt:    -1,
		}
	}
}

// clearEvents zeroes evs so a pooled batch does not pin path slices,
// source strings, or anything else its previous user referenced.
func clearEvents(evs []Event) {
	for i := range evs {
		evs[i] = Event{}
	}
}

// maxInterned bounds an Interner's table: a feed names a handful of
// collectors, and a hostile one naming a new collector per message must
// not grow a decoder without limit.
const maxInterned = 1024

// Interner hands out one shared string per distinct byte string, so a
// decoder that reads the same collector or source name on every message
// allocates it once. The zero value is ready to use; an Interner is not
// safe for concurrent use.
type Interner struct {
	m map[string]string
}

// Intern returns b as a string, shared with earlier calls for the same
// bytes while the table has room.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string)
	}
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	return s
}

// CopyEvents deep-copies a published batch — events and their Path
// slices — into a caller-owned slice, reusing dst's backing array when
// it is large enough. It is the escape hatch for consumers that must
// retain events past a publisher's callback without taking a pooled
// batch of their own.
func CopyEvents(dst, src []Event) []Event {
	dst = append(dst[:0], src...)
	for i := range dst {
		if len(dst[i].Path) > 0 {
			dst[i].Path = append([]bgp.ASN(nil), dst[i].Path...)
		}
	}
	return dst
}
