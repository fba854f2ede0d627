package ttlset

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestUnboundedBehavesLikePlainSet(t *testing.T) {
	s := New[string](0, 0)
	if !s.Add("a", 0) {
		t.Fatal("first add should report absent")
	}
	if s.Add("a", time.Hour) {
		t.Fatal("re-add should report present, no TTL configured")
	}
	if !s.Contains("a", 24*time.Hour) {
		t.Fatal("entry must never expire with ttl=0")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestTTLExpiry(t *testing.T) {
	s := New[string](10*time.Millisecond, 0)
	if !s.Add("k", 0) {
		t.Fatal("first add")
	}
	if s.Add("k", 5*time.Millisecond) {
		t.Fatal("still live at 5ms")
	}
	if s.Add("k", 10*time.Millisecond) {
		t.Fatal("still live exactly at the TTL boundary")
	}
	if !s.Add("k", 11*time.Millisecond) {
		t.Fatal("expired after the TTL, add must succeed again")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after re-add", s.Len())
	}
}

func TestNoRefreshOnReAdd(t *testing.T) {
	s := New[string](10*time.Millisecond, 0)
	s.Add("k", 0)
	s.Add("k", 9*time.Millisecond) // duplicate must NOT refresh expiry
	if s.Contains("k", 12*time.Millisecond) {
		t.Fatal("entry should expire 10ms after FIRST sighting")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	s := New[int](0, 2)
	s.Add(1, 0)
	s.Add(2, 1)
	s.Add(3, 2) // evicts 1
	if s.Contains(1, 2) {
		t.Fatal("oldest entry should be evicted at capacity")
	}
	if !s.Contains(2, 2) || !s.Contains(3, 2) {
		t.Fatal("newer entries must survive")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestOutOfOrderTimesClampToHighWater(t *testing.T) {
	s := New[string](10*time.Millisecond, 0)
	s.Add("a", 20*time.Millisecond)
	// A stale-timestamped key is stamped at the high-water mark, so it
	// expires relative to 20ms, not 1ms.
	s.Add("b", time.Millisecond)
	if !s.Contains("b", 25*time.Millisecond) {
		t.Fatal("b stamped at high-water 20ms must survive until 30ms")
	}
	if s.Contains("b", 31*time.Millisecond) {
		t.Fatal("b must expire after 30ms")
	}
}

// TestAgainstNaiveModel cross-checks the queue/compaction implementation
// against a naive map model under random operations.
func TestAgainstNaiveModel(t *testing.T) {
	const ttl = 50 * time.Millisecond
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New[int](ttl, 0)
		model := map[int]time.Duration{} // key -> inserted-at (high-water stamped)
		var hw time.Duration
		now := time.Duration(0)
		for i := 0; i < 5000; i++ {
			now += time.Duration(rng.Intn(4)) * time.Millisecond
			// The model sees the same clamped clock.
			if now > hw {
				hw = now
			}
			for k, at := range model {
				if hw-at > ttl {
					delete(model, k)
				}
			}
			k := rng.Intn(64)
			_, present := model[k]
			if got := s.Add(k, now); got != !present {
				t.Fatalf("seed %d op %d: Add(%d) = %v, model says present=%v", seed, i, k, got, present)
			}
			if !present {
				model[k] = hw
			}
			if s.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, i, s.Len(), len(model))
			}
		}
	}
}

func TestCompactionKeepsEntriesIntact(t *testing.T) {
	s := New[string](time.Millisecond, 0)
	// Push enough churn through to trigger compaction repeatedly.
	for i := 0; i < 10000; i++ {
		now := time.Duration(i) * time.Millisecond
		if !s.Add(fmt.Sprintf("k%d", i), now) {
			t.Fatalf("add %d failed", i)
		}
		if s.Len() > 2 {
			t.Fatalf("at most 2 entries can be live with 1ms ttl and 1ms steps, got %d", s.Len())
		}
	}
}

func TestSetBoundsShrinkTTLExpires(t *testing.T) {
	s := New[string](0, 0) // unbounded: the detector's historical semantics
	s.Add("old", 0)
	s.Add("mid", 30*time.Second)
	s.Add("new", 90*time.Second)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Shrinking the TTL expires against the current high-water mark (90s):
	// "old" (age 90s) is over-age; "mid" sits exactly at the new TTL (ages
	// must exceed it to expire) and "new" survive.
	s.SetBounds(time.Minute, 0)
	if s.Len() != 2 || !s.Contains("new", 90*time.Second) || !s.Contains("mid", 90*time.Second) {
		t.Fatalf("after TTL shrink: Len=%d", s.Len())
	}
	if s.Contains("old", 90*time.Second) {
		t.Fatal("over-age entry survived the shrink")
	}
	// The retuned TTL governs future adds too.
	if !s.Add("old", 91*time.Second) {
		t.Fatal("expired entry should re-add")
	}
}

func TestSetBoundsShrinkMaxEvicts(t *testing.T) {
	s := New[int](0, 0)
	for i := 0; i < 6; i++ {
		s.Add(i, time.Duration(i)*time.Second)
	}
	s.SetBounds(0, 2)
	if s.Len() != 2 {
		t.Fatalf("Len after max shrink = %d, want 2", s.Len())
	}
	// Oldest went first; the two newest remain.
	if !s.Contains(4, 6*time.Second) || !s.Contains(5, 6*time.Second) {
		t.Fatal("eviction did not keep the newest entries")
	}
	// And the cap keeps applying: a new add evicts the now-oldest.
	s.Add(6, 7*time.Second)
	if s.Len() != 2 || s.Contains(4, 7*time.Second) {
		t.Fatalf("cap not enforced after retune: Len=%d", s.Len())
	}
}

func TestSetBoundsGrowTTLExtends(t *testing.T) {
	s := New[string](time.Minute, 0)
	s.Add("k", 0)
	// Entries keep their insertion stamps, so growing the TTL extends the
	// life of what is already in the set.
	s.SetBounds(time.Hour, 0)
	if !s.Contains("k", 30*time.Minute) {
		t.Fatal("grown TTL did not extend a live entry")
	}
	if s.Contains("k", 2*time.Hour) {
		t.Fatal("entry outlived even the grown TTL")
	}
}

// BenchmarkAddChurn is the ingest dedup cache at its defaults under a
// lossless replay: 16 shards of 4096 keys (DedupMax 1<<16), a 10-minute
// TTL, every key fresh and the clock advancing at 100k events/s, so once
// the shards fill each Add inserts one key and evicts the oldest.
func BenchmarkAddChurn(b *testing.B) {
	const shards, per = 16, 4096
	var sets [shards]*Set[uint64]
	for i := range sets {
		sets[i] = New[uint64](10*time.Minute, per)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		sets[k%shards].Add(k, time.Duration(i)*10*time.Microsecond)
	}
}
