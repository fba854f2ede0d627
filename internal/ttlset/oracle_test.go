package ttlset

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// The reference below is the set as it stood before the slot table: a Go
// map beside the insertion-ordered queue, kept verbatim (identifiers
// renamed) so TestSetMatchesReference can hold the map-free Set to it.

type refEntry[K comparable] struct {
	key K
	at  time.Duration
}

// Set is the bounded TTL'd set. The zero value is not usable; construct
// with New. A Set is not safe for concurrent use — callers that share one
// (the ingest dedup cache, the detector) guard it with their own lock.
type refSet[K comparable] struct {
	ttl time.Duration
	max int

	m map[K]time.Duration
	// q holds live entries in insertion order: expiry and capacity
	// eviction both pop from the head. head indexes the first live entry;
	// the slice is compacted when the dead prefix grows.
	q    []refEntry[K]
	head int
	// now is the high-water mark of observed time.
	now time.Duration
}

// New builds a set. ttl == 0 disables age expiry (entries live forever);
// max == 0 disables the size bound. With both zero the set degenerates to
// a plain grow-only set, which is the detector's historical semantics.
func newRefSet[K comparable](ttl time.Duration, max int) *refSet[K] {
	return &refSet[K]{ttl: ttl, max: max, m: make(map[K]time.Duration)}
}

// SetBounds retunes the TTL and size bound of a live set. A shrunk TTL
// expires over-age entries immediately (against the current high-water
// mark); a shrunk max evicts oldest entries down to the new bound. Entries
// keep their original insertion stamps, so a grown TTL extends the life of
// everything still in the set. This is what makes the dedup windows
// hot-tunable on a config swap instead of construction-time-only.
func (s *refSet[K]) SetBounds(ttl time.Duration, max int) {
	s.ttl, s.max = ttl, max
	s.advance(s.now)
	for s.max > 0 && len(s.m) > s.max {
		s.evictOldest()
	}
}

// Add inserts key at the given time and reports whether it was absent
// (true = first sighting within the current window). Re-adding a live key
// returns false without refreshing its expiry.
func (s *refSet[K]) Add(key K, now time.Duration) bool {
	s.advance(now)
	if _, ok := s.m[key]; ok {
		return false
	}
	if s.max > 0 && len(s.m) >= s.max {
		s.evictOldest()
	}
	s.m[key] = s.now
	s.q = append(s.q, refEntry[K]{key: key, at: s.now})
	return true
}

// Contains reports whether key is live at the given time.
func (s *refSet[K]) Contains(key K, now time.Duration) bool {
	s.advance(now)
	_, ok := s.m[key]
	return ok
}

// Len returns the number of live entries.
func (s *refSet[K]) Len() int { return len(s.m) }

// advance moves the high-water mark and expires aged-out entries. Times
// may arrive out of order across sources; entries are stamped with the
// high-water mark at insertion, so the queue stays sorted and expiry is a
// head pop.
func (s *refSet[K]) advance(now time.Duration) {
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
func (s *refSet[K]) evictOldest() {
	if s.head >= len(s.q) {
		return
	}
	delete(s.m, s.q[s.head].key)
	s.head++
	s.compact()
}

// compact reclaims the dead prefix of q once it dominates the slice.
func (s *refSet[K]) compact() {
	if s.head > 32 && s.head > len(s.q)/2 {
		s.q = append(s.q[:0], s.q[s.head:]...)
		s.head = 0
	}
}

// TestSetMatchesReference drives Set and the reference through the same
// random operations — keys from a small and a large pool, a clock that
// mostly advances but also steps back, and SetBounds shrinking and
// growing both bounds through zero — and compares every Add and Contains
// result and Len after each operation.
func TestSetMatchesReference(t *testing.T) {
	bounds := []struct {
		ttl time.Duration
		max int
	}{{0, 0}, {0, 5}, {40 * time.Millisecond, 0}, {40 * time.Millisecond, 17}, {time.Millisecond, 200}}
	for seed := int64(1); seed <= 20; seed++ {
		b := bounds[seed%int64(len(bounds))]
		compareWithReference(t, seed, b.ttl, b.max, func(k int) int { return k })
		compareWithReference(t, seed, b.ttl, b.max, strconv.Itoa)
	}
}

func compareWithReference[K comparable](t *testing.T, seed int64, ttl time.Duration, max int, key func(int) K) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, ref := New[K](ttl, max), newRefSet[K](ttl, max)
	var now time.Duration
	for op := 0; op < 10000; op++ {
		switch r := rng.Intn(20); {
		case r < 3:
			now -= time.Duration(rng.Intn(20)) * time.Millisecond // out of order
		default:
			now += time.Duration(rng.Intn(3)) * time.Millisecond
		}
		k := rng.Intn(48)
		if rng.Intn(4) == 0 {
			k = rng.Intn(1 << 20)
		}
		switch r := rng.Intn(100); {
		case r < 70:
			if got, want := s.Add(key(k), now), ref.Add(key(k), now); got != want {
				t.Fatalf("seed %d op %d: Add(%v) = %v, reference %v", seed, op, key(k), got, want)
			}
		case r < 97:
			if got, want := s.Contains(key(k), now), ref.Contains(key(k), now); got != want {
				t.Fatalf("seed %d op %d: Contains(%v) = %v, reference %v", seed, op, key(k), got, want)
			}
		default:
			ttl := []time.Duration{0, 5 * time.Millisecond, 40 * time.Millisecond, time.Second}[rng.Intn(4)]
			max := []int{0, 1, 3, 17, 300}[rng.Intn(5)]
			s.SetBounds(ttl, max)
			ref.SetBounds(ttl, max)
		}
		if s.Len() != len(ref.m) {
			t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, s.Len(), len(ref.m))
		}
	}
	for k := range ref.m {
		if !s.Contains(k, now) {
			t.Fatalf("seed %d: reference holds %v at the end, Set does not", seed, k)
		}
	}
}

// TestChurnHoldsMaxWithoutAllocating: at the size bound, a stream of 20x
// max fresh keys keeps the set at exactly max entries, and once the set
// has grown to the bound no Add allocates.
func TestChurnHoldsMaxWithoutAllocating(t *testing.T) {
	const max = 1 << 12
	s := New[uint64](10*time.Minute, max)
	var k uint64
	add := func() {
		k++
		s.Add(k*0x9e3779b97f4a7c15, time.Duration(k)*10*time.Microsecond)
	}
	for range max {
		add()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 20 * max {
			add()
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 20x max fresh keys at steady state, want 0", allocs)
	}
	if s.Len() != max {
		t.Errorf("Len = %d after churn, want %d", s.Len(), max)
	}
	if !s.Contains(k*0x9e3779b97f4a7c15, 0) || s.Contains((k-max)*0x9e3779b97f4a7c15, 0) {
		t.Error("churn did not keep exactly the newest max keys")
	}
}
