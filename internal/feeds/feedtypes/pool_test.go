package feedtypes

import (
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

func poolEvent(p string, path ...bgp.ASN) Event {
	return Event{
		Source: "test", Collector: "c0", VantagePoint: 100,
		Kind: Announce, Prefix: prefix.MustParse(p), Path: path,
	}
}

// TestBatchArenaPaths verifies NewPath/AppendPath hand out arena-backed
// slices that survive arena growth and never alias each other.
func TestBatchArenaPaths(t *testing.T) {
	pool := NewBatchPool()
	b := pool.Get()

	p1 := b.NewPath(3)
	copy(p1, []bgp.ASN{1, 2, 3})
	b.Append(Event{Prefix: prefix.MustParse("10.0.0.0/24"), Kind: Announce, Path: p1})

	// Force arena growth: earlier paths must keep their values.
	for i := 0; i < 100; i++ {
		p := b.NewPath(7)
		for j := range p {
			p[j] = bgp.ASN(1000 + i)
		}
	}
	if p1[0] != 1 || p1[1] != 2 || p1[2] != 3 {
		t.Fatalf("path corrupted by arena growth: %v", p1)
	}

	// Full-capacity cap: appending to an arena path must not clobber the
	// next path.
	a := b.AppendPath([]bgp.ASN{10, 20})
	next := b.AppendPath([]bgp.ASN{30, 40})
	_ = append(a, 99) // would overwrite next[0] without the 3-index cap
	if next[0] != 30 {
		t.Fatalf("appending to one arena path clobbered its neighbor: %v", next)
	}
}

// TestBatchAppendCopy verifies the deep-copy append detaches from the
// caller's storage.
func TestBatchAppendCopy(t *testing.T) {
	pool := NewBatchPool()
	b := pool.Get()
	src := []bgp.ASN{100, 200, 300}
	b.AppendCopy(poolEvent("10.0.0.0/24", src...))
	src[0] = 999
	if got := b.Events[0].Path[0]; got != 100 {
		t.Fatalf("AppendCopy aliased the caller's path: got %d", got)
	}
}

// TestPoolRecycles verifies Get after Put reuses the backing arrays
// (the whole point) and that the recycled batch arrives empty. Under the
// race detector sync.Pool drops a random share of Puts, so there the
// round trip is repeated until one recycled batch comes back; without it
// the first Get must be the recycled batch.
func TestPoolRecycles(t *testing.T) {
	tries := 1
	if raceEnabled {
		tries = 64
	}
	pool := NewBatchPool()
	var evCap, pathCap int
	for range tries {
		b := pool.Get()
		b.AppendCopy(poolEvent("10.0.0.0/24", 1, 2, 3))
		evCap, pathCap = cap(b.Events), cap(b.paths)
		b.Release()

		b2 := pool.Get()
		if len(b2.Events) != 0 || len(b2.paths) != 0 {
			t.Fatalf("recycled batch not empty: %d events, %d arena", len(b2.Events), len(b2.paths))
		}
		if cap(b2.Events) == evCap && cap(b2.paths) == pathCap {
			return
		}
		if !raceEnabled {
			t.Fatalf("recycled batch lost its backing arrays: ev %d→%d, arena %d→%d",
				evCap, cap(b2.Events), pathCap, cap(b2.paths))
		}
		b2.Release()
	}
	t.Fatalf("no recycled batch kept its backing arrays (ev cap %d, arena cap %d) in %d round trips", evCap, pathCap, tries)
}

// TestPoisonMarksReleasedStorage verifies the poison knob overwrites a
// released batch's storage so an illegal retainer sees sentinels.
func TestPoisonMarksReleasedStorage(t *testing.T) {
	pool := NewBatchPool()
	pool.SetPoison(true)
	b := pool.Get()
	b.AppendCopy(poolEvent("10.0.0.0/24", 1, 2, 3))

	retainedEvents := b.Events // illegal: retained past Release
	retainedPath := b.Events[0].Path
	b.Release()

	if retainedEvents[0].Source != "poisoned" || retainedEvents[0].Prefix != PoisonPrefix {
		t.Fatalf("released event not poisoned: %+v", retainedEvents[0])
	}
	for i, as := range retainedPath {
		if as != PoisonASN {
			t.Fatalf("released arena path element %d not poisoned: %d", i, as)
		}
	}
}

// TestCopyEvents verifies the retain-past-callback escape hatch
// deep-copies paths.
func TestCopyEvents(t *testing.T) {
	pool := NewBatchPool()
	pool.SetPoison(true)
	b := pool.Get()
	b.AppendCopy(poolEvent("10.0.0.0/24", 7, 8, 9))
	b.AppendCopy(poolEvent("10.0.1.0/24"))

	snap := CopyEvents(nil, b.Events)
	b.Release()

	if snap[0].Path[0] != 7 || snap[0].Path[2] != 9 {
		t.Fatalf("CopyEvents did not detach paths: %v", snap[0].Path)
	}
	if snap[1].Prefix != prefix.MustParse("10.0.1.0/24") {
		t.Fatalf("CopyEvents lost event fields: %+v", snap[1])
	}
}

// TestPublishThenReleaseSafe is the lifecycle test: a feed publishing
// through a hub and immediately releasing must deliver intact events to
// a subscriber that copies, even with poisoning on.
func TestPublishThenReleaseSafe(t *testing.T) {
	pool := NewBatchPool()
	pool.SetPoison(true)
	hub := NewHub()

	var got []Event
	hub.SubscribeBatch(Filter{}, func(batch []Event) {
		got = CopyEvents(got, batch) // the legal way to retain
	})

	for round := 0; round < 3; round++ {
		b := pool.Get()
		ev := poolEvent("10.0.0.0/24", 1, 2, 3)
		b.AppendCopy(ev)
		hub.Publish(b.Events)
		b.Release()

		if len(got) != 1 || got[0].Prefix != ev.Prefix || got[0].Path[2] != 3 {
			t.Fatalf("round %d: subscriber copy corrupted: %+v", round, got)
		}
	}
}
