package core

import (
	"sync"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// TestAsyncMitigationDoesNotStallSink: with the queue in async mode, a
// blocked alert handler must not stall the pipeline's sink — Submit and
// Flush keep completing while mitigation is stuck. (Before the queue, the
// handler ran on the sink goroutine and this test would deadlock.)
func TestAsyncMitigationDoesNotStallSink(t *testing.T) {
	gate := make(chan struct{}) // handler blocks until the test opens it
	var mu sync.Mutex
	var handled []string
	q := NewMitigationQueue(func(a Alert) {
		<-gate
		mu.Lock()
		handled = append(handled, a.Key())
		mu.Unlock()
	}, MitigationQueueConfig{Depth: 64}, nil)

	det := NewDetector(multiOwnedConfig())
	det.OnAlert(q.Enqueue)
	p := NewPipeline(det, NewMonitor(multiOwnedConfig()), PipelineConfig{})

	mk := func(pfx string, origin bgp.ASN) feedtypes.Event {
		return feedtypes.Event{
			Source: "ris", VantagePoint: 1, Kind: feedtypes.Announce,
			Prefix: prefix.MustParse(pfx), Path: []bgp.ASN{1, origin},
		}
	}
	// Three distinct incidents: three alerts enqueue behind the gate.
	p.Submit([]feedtypes.Event{mk("10.0.0.0/23", 666)})
	p.Submit([]feedtypes.Event{mk("10.1.0.0/22", 777)})
	p.Submit([]feedtypes.Event{mk("192.0.2.0/24", 888)})
	// Flush returns even though no alert has been handled: the sink only
	// enqueues. With the pre-queue inline handler this would hang forever.
	p.Flush()
	snap := q.Snapshot()
	if snap.Enqueued != 3 || snap.Handled != 0 {
		t.Fatalf("enqueued %d handled %d before gate opened, want 3/0", snap.Enqueued, snap.Handled)
	}
	// Throughput continues while mitigation is stuck.
	p.Submit(mixedEvents(200))
	p.Flush()
	p.Close()

	close(gate)
	q.Close() // drains: all accepted alerts handled
	snap = q.Snapshot()
	if snap.Handled != snap.Enqueued {
		t.Fatalf("close did not drain: handled %d of %d", snap.Handled, snap.Enqueued)
	}
	mu.Lock()
	defer mu.Unlock()
	// Ordered queue: alerts handled in commit order.
	want := []string{
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("10.0.0.0/23"), Origin: 666}.Key(),
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("10.1.0.0/22"), Origin: 777}.Key(),
		Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("192.0.2.0/24"), Origin: 888}.Key(),
	}
	for i, k := range want {
		if i >= len(handled) || handled[i] != k {
			t.Fatalf("handled order %v, want prefix %v", handled, want)
		}
	}
}

// TestMitigationQueueCloseRace drives concurrent enqueuers against Close
// under -race: no alert may be lost (handled + dropped == enqueue
// attempts) and every accepted alert is handled.
func TestMitigationQueueCloseRace(t *testing.T) {
	const (
		enqueuers = 8
		perEnq    = 200
	)
	var mu sync.Mutex
	handled := 0
	q := NewMitigationQueue(func(Alert) {
		mu.Lock()
		handled++
		mu.Unlock()
	}, MitigationQueueConfig{Depth: 4}, nil)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < enqueuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perEnq; i++ {
				q.Enqueue(Alert{Type: AlertExactOrigin, Origin: bgp.ASN(g*1000 + i)})
			}
		}(g)
	}
	close(start)
	// Close races the enqueuers: some alerts get in, late ones drop.
	q.Close()
	wg.Wait()

	snap := q.Snapshot()
	if snap.Enqueued+snap.Dropped != enqueuers*perEnq {
		t.Fatalf("accounting: enqueued %d + dropped %d != %d", snap.Enqueued, snap.Dropped, enqueuers*perEnq)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(handled) != snap.Enqueued || snap.Handled != snap.Enqueued {
		t.Fatalf("accepted %d, handled %d (counter %d): accepted alerts lost on Close",
			snap.Enqueued, handled, snap.Handled)
	}
}

// TestMitigationQueueSynchronous: sync mode runs the handler inline —
// the virtual-time experiments' semantics.
func TestMitigationQueueSynchronous(t *testing.T) {
	var handled []bgp.ASN
	q := NewMitigationQueue(func(a Alert) { handled = append(handled, a.Origin) },
		MitigationQueueConfig{Synchronous: true}, nil)
	q.Enqueue(Alert{Origin: 1})
	q.Enqueue(Alert{Origin: 2})
	if len(handled) != 2 || handled[0] != 1 || handled[1] != 2 {
		t.Fatalf("handled = %v", handled) // inline: visible immediately, in order
	}
	q.Close()
	q.Enqueue(Alert{Origin: 3})
	if len(handled) != 2 {
		t.Fatal("enqueue after close ran the handler")
	}
	if s := q.Snapshot(); s.Dropped != 1 || !s.Synchronous {
		t.Fatalf("snapshot = %+v", s)
	}
}
