// Package ttlset provides a bounded set of recently seen keys with
// event-time expiry. It backs the two dedup caches that must not grow
// without bound in a long-running daemon: the ingest supervisor's
// cross-source seen-set and the detector's alert-incident set.
//
// Time is supplied by the caller on every operation (an event's emission
// time in the virtual-time experiments, a wall-clock-since-start duration
// in live daemons), so the set works identically under both clocks and
// stays fully deterministic in simulation. The set keeps a high-water
// mark of the times it has seen; entries expire once the high-water mark
// moves more than the TTL past their insertion time. Membership is
// first-wins: re-adding a live key does not refresh its expiry, so a key
// is guaranteed to pass again at most one TTL after it was first seen.
// At the size bound, eviction is exactly oldest-first over the whole set.
//
// The set is a ring of entries in insertion order plus an open-addressed
// index over it (linear probing, backward-shift deletion, load at most
// one half). Both grow by doubling from a small start, so a set pays
// for what it holds rather than for its bound, and steady insert+expire
// churn neither allocates nor leaves tombstones behind.
package ttlset

import (
	"hash/maphash"
	"time"
)

type entry[K comparable] struct {
	key K
	at  time.Duration
}

// minRing is the ring length a set starts with on its first Add.
const minRing = 8

// Set is the bounded TTL'd set. The zero value is not usable; construct
// with New. A Set is not safe for concurrent use — callers that share one
// (the ingest dedup cache, the detector) guard it with their own lock.
type Set[K comparable] struct {
	ttl  time.Duration
	max  int
	seed maphash.Seed

	// ring holds the n live entries in insertion order, oldest at head
	// and wrapping at len(ring): expiry and capacity eviction both pop
	// from the head.
	ring    []entry[K]
	head, n int
	// slots indexes ring by key. A slot is 0 when empty, otherwise the
	// low 32 bits of the key's hash (which also pick its home slot) over
	// the ring position plus one. len(slots) is a power of two at least
	// twice len(ring), so probes always reach an empty slot.
	slots []uint64
	// now is the high-water mark of observed time.
	now time.Duration
}

// New builds a set. ttl == 0 disables age expiry (entries live forever);
// max == 0 disables the size bound. With both zero the set degenerates to
// a plain grow-only set, which is the detector's historical semantics.
// Nothing is allocated until the first Add.
func New[K comparable](ttl time.Duration, max int) *Set[K] {
	return &Set[K]{ttl: ttl, max: max, seed: maphash.MakeSeed()}
}

// SetBounds retunes the TTL and size bound of a live set. A shrunk TTL
// expires over-age entries immediately (against the current high-water
// mark); a shrunk max evicts oldest entries down to the new bound. Entries
// keep their original insertion stamps, so a grown TTL extends the life of
// everything still in the set. This is what makes the dedup windows
// hot-tunable on a config swap instead of construction-time-only.
func (s *Set[K]) SetBounds(ttl time.Duration, max int) {
	s.ttl, s.max = ttl, max
	s.advance(s.now)
	for s.max > 0 && s.n > s.max {
		s.popHead()
	}
}

// Add inserts key at the given time and reports whether it was absent
// (true = first sighting within the current window). Re-adding a live key
// returns false without refreshing its expiry.
func (s *Set[K]) Add(key K, now time.Duration) bool {
	s.advance(now)
	h := s.hash(key)
	if s.find(key, h) >= 0 {
		return false
	}
	if s.max > 0 && s.n >= s.max {
		s.popHead()
	} else if s.n == len(s.ring) {
		s.grow()
	}
	pos := s.head + s.n
	if pos >= len(s.ring) {
		pos -= len(s.ring)
	}
	s.ring[pos] = entry[K]{key: key, at: s.now}
	s.n++
	mask := len(s.slots) - 1
	i := int(h) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = uint64(h)<<32 | uint64(pos+1)
	return true
}

// Contains reports whether key is live at the given time.
func (s *Set[K]) Contains(key K, now time.Duration) bool {
	s.advance(now)
	return s.find(key, s.hash(key)) >= 0
}

// Len returns the number of live entries.
func (s *Set[K]) Len() int { return s.n }

func (s *Set[K]) hash(key K) uint32 { return uint32(maphash.Comparable(s.seed, key)) }

// find returns the slot holding key, or -1.
func (s *Set[K]) find(key K, h uint32) int {
	if len(s.slots) == 0 {
		return -1
	}
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			return -1
		}
		if uint32(sl>>32) == h && s.ring[uint32(sl)-1].key == key {
			return i
		}
	}
}

// advance moves the high-water mark and expires aged-out entries. Times
// may arrive out of order across sources; entries are stamped with the
// high-water mark at insertion, so the ring stays sorted and expiry is a
// head pop.
func (s *Set[K]) advance(now time.Duration) {
	if now > s.now {
		s.now = now
	}
	if s.ttl <= 0 {
		return
	}
	for s.n > 0 && s.now-s.ring[s.head].at > s.ttl {
		s.popHead()
	}
}

// popHead drops the oldest live entry: its slot is found by hash and
// ring position, and the probe run behind it shifts back over the hole.
func (s *Set[K]) popHead() {
	if s.n == 0 {
		return
	}
	e := &s.ring[s.head]
	h := s.hash(e.key)
	want := uint64(h)<<32 | uint64(s.head+1)
	mask := len(s.slots) - 1
	i := int(h) & mask
	for s.slots[i] != want {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if home := int(uint32(s.slots[j]>>32)) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
	*e = entry[K]{}
	s.n--
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
}

// grow doubles the ring (capped at max when bounded) and rebuilds the
// index over it, moving the live entries to the front in order. The old
// slots carry each key's hash, so nothing is rehashed.
func (s *Set[K]) grow() {
	size := max(2*len(s.ring), minRing)
	if s.max > 0 {
		size = min(size, s.max)
	}
	nslots := 1
	for nslots < 2*size {
		nslots <<= 1
	}
	ring := make([]entry[K], size)
	slots := make([]uint64, nslots)
	mask := nslots - 1
	for _, sl := range s.slots {
		if sl == 0 {
			continue
		}
		pos := int(uint32(sl)) - 1 - s.head
		if pos < 0 {
			pos += len(s.ring)
		}
		ring[pos] = s.ring[int(uint32(sl))-1]
		i := int(sl>>32) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = sl&^(1<<32-1) | uint64(pos+1)
	}
	s.ring, s.slots, s.head = ring, slots, 0
}
