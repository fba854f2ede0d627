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
package ttlset

import "time"

type entry[K comparable] struct {
	key K
	at  time.Duration
}

// Set is the bounded TTL'd set. The zero value is not usable; construct
// with New. A Set is not safe for concurrent use — callers that share one
// (the ingest dedup cache, the detector) guard it with their own lock.
type Set[K comparable] struct {
	ttl time.Duration
	max int

	m map[K]time.Duration
	// q holds live entries in insertion order: expiry and capacity
	// eviction both pop from the head. head indexes the first live entry;
	// the slice is compacted when the dead prefix grows.
	q    []entry[K]
	head int
	// now is the high-water mark of observed time.
	now time.Duration
}

// New builds a set. ttl == 0 disables age expiry (entries live forever);
// max == 0 disables the size bound. With both zero the set degenerates to
// a plain grow-only set, which is the detector's historical semantics.
func New[K comparable](ttl time.Duration, max int) *Set[K] {
	return &Set[K]{ttl: ttl, max: max, m: make(map[K]time.Duration)}
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
	for s.max > 0 && len(s.m) > s.max {
		s.evictOldest()
	}
}

// Add inserts key at the given time and reports whether it was absent
// (true = first sighting within the current window). Re-adding a live key
// returns false without refreshing its expiry.
func (s *Set[K]) Add(key K, now time.Duration) bool {
	s.advance(now)
	if _, ok := s.m[key]; ok {
		return false
	}
	if s.max > 0 && len(s.m) >= s.max {
		s.evictOldest()
	}
	s.m[key] = s.now
	s.q = append(s.q, entry[K]{key: key, at: s.now})
	return true
}

// Contains reports whether key is live at the given time.
func (s *Set[K]) Contains(key K, now time.Duration) bool {
	s.advance(now)
	_, ok := s.m[key]
	return ok
}

// Len returns the number of live entries.
func (s *Set[K]) Len() int { return len(s.m) }

// advance moves the high-water mark and expires aged-out entries. Times
// may arrive out of order across sources; entries are stamped with the
// high-water mark at insertion, so the queue stays sorted and expiry is a
// head pop.
func (s *Set[K]) advance(now time.Duration) {
	if now > s.now {
		s.now = now
	}
	if s.ttl <= 0 {
		return
	}
	for s.head < len(s.q) && s.now-s.q[s.head].at > s.ttl {
		delete(s.m, s.q[s.head].key)
		s.head++
	}
	s.compact()
}

// evictOldest drops the oldest live entry to make room.
func (s *Set[K]) evictOldest() {
	if s.head >= len(s.q) {
		return
	}
	delete(s.m, s.q[s.head].key)
	s.head++
	s.compact()
}

// compact reclaims the dead prefix of q once it dominates the slice.
func (s *Set[K]) compact() {
	if s.head > 32 && s.head > len(s.q)/2 {
		s.q = append(s.q[:0], s.q[s.head:]...)
		s.head = 0
	}
}
