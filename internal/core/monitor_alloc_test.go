//go:build !race

// Excluded under the race detector, whose instrumentation allocates on
// its own schedule.
package core

import (
	"math/rand"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// TestMonitorFoldAllocationFree: once the monitor has seen the stream's
// prefixes and vantage points, folding a 256-event batch allocates
// (amortized) at most once — the sink's monitor stage adds nothing per
// event.
func TestMonitorFoldAllocationFree(t *testing.T) {
	owned, err := prefix.MustParse("10.0.0.0/16").Deaggregate(26)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(&Config{OwnedPrefixes: owned, LegitOrigins: []bgp.ASN{61000}, Self: NewSelfAnnounced()})
	rng := rand.New(rand.NewSource(3))
	evs := make([]feedtypes.Event, 8192)
	for i := range evs {
		vp := bgp.ASN(100 + rng.Intn(64))
		p := owned[rng.Intn(len(owned))]
		if rng.Intn(4) == 0 {
			p, _ = p.Split() // a more-specific
		}
		origin := bgp.ASN(61000)
		if rng.Intn(10) == 0 {
			origin = 666
		}
		evs[i] = feedtypes.Event{
			Source: "ris", VantagePoint: vp, Kind: feedtypes.Announce, Prefix: p,
			Path: []bgp.ASN{vp, 2000, origin}, SeenAt: time.Duration(i), EmittedAt: time.Duration(i),
		}
		if rng.Intn(10) == 0 {
			evs[i].Kind, evs[i].Path = feedtypes.Withdraw, nil
		}
	}
	m.ProcessBatch(evs) // warm: intern every prefix, create every VP

	const batchSize = 256
	off := 0
	avg := testing.AllocsPerRun(100, func() {
		batch := evs[off : off+batchSize]
		for i := range batch { // fresher than the last pass: not stale-dropped
			batch[i].SeenAt += time.Duration(len(evs))
		}
		m.ProcessBatch(batch)
		off = (off + batchSize) % len(evs)
	})
	if avg > 1 {
		t.Errorf("steady-state ProcessBatch averaged %.2f allocs per batch, want <= 1", avg)
	}
}
