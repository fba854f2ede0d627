package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// gatedAnnouncer blocks every announcement until gate is closed.
type gatedAnnouncer struct{ gate chan struct{} }

func (g gatedAnnouncer) Announce(prefix.Prefix) error {
	<-g.gate
	return nil
}

// TestAsyncMitigationDoesNotStallSink: with the queue in async mode, a
// blocked alert handler must not stall the pipeline's sink — Submit and
// Flush keep completing while mitigation is stuck. (Before the queue, the
// handler ran on the sink goroutine and this test would deadlock.)
func TestAsyncMitigationDoesNotStallSink(t *testing.T) {
	gate := make(chan struct{}) // handler blocks until the test opens it
	mit := NewMitigator(multiOwnedConfig(), gatedAnnouncer{gate}, func() time.Duration { return 0 })
	q := NewMitigationQueue(64)

	det := NewDetector(multiOwnedConfig())
	det.OnAlert(func(a Alert) { q.Enqueue(mit, a) })
	p := newPipeline(det, NewMonitor(multiOwnedConfig()), PipelineConfig{})

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
	// Ordered queue: alerts handled in commit order.
	want := []incidentKey{
		{typ: AlertExactOrigin, prefix: prefix.MustParse("10.0.0.0/23"), origin: 666},
		{typ: AlertExactOrigin, prefix: prefix.MustParse("10.1.0.0/22"), origin: 777},
		{typ: AlertExactOrigin, prefix: prefix.MustParse("192.0.2.0/24"), origin: 888},
	}
	recs := mit.Records()
	for i, k := range want {
		if i >= len(recs) || recs[i].Alert.incident() != k {
			t.Fatalf("handled order %+v, want %v", recs, want)
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
	ann := &recordingAnnouncer{}
	mit := NewMitigator(testConfig(), ann, func() time.Duration { return 0 })
	q := NewMitigationQueue(4)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < enqueuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perEnq; i++ {
				a := alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23")
				a.Origin = bgp.ASN(g*1000 + i) // one incident each
				q.Enqueue(mit, a)
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
	if handled := int64(len(mit.Records())); handled != snap.Enqueued || snap.Handled != snap.Enqueued {
		t.Fatalf("accepted %d, handled %d (counter %d): accepted alerts lost on Close",
			snap.Enqueued, handled, snap.Handled)
	}
}

// requestLog is a Southbound that records each request and answers none.
type requestLog struct {
	reqs []prefix.Prefix
	done []func(controller.Action)
}

func (r *requestLog) Request(_ controller.ActionKind, p prefix.Prefix, done func(controller.Action)) {
	r.reqs = append(r.reqs, p)
	r.done = append(r.done, done)
}

// TestServiceInlineMitigation: a service built without a queue mitigates
// on the alert-committing goroutine — the virtual-time experiments'
// semantics — and a closed service hands nothing more to mitigation,
// retries included.
func TestServiceInlineMitigation(t *testing.T) {
	sb := &requestLog{}
	svc, err := NewService(testConfig(), sb, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, 666))
	if len(sb.reqs) != 2 { // inline: visible as soon as Process returns
		t.Fatalf("requests = %v", sb.reqs)
	}
	// A failed announcement retries inline.
	sb.done[0](controller.Action{Kind: controller.ActionAnnounce, Prefix: sb.reqs[0], Err: errTest})
	if len(sb.reqs) != 3 || sb.reqs[2] != sb.reqs[0] {
		t.Fatalf("retry requests = %v", sb.reqs)
	}
	svc.Close()
	svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, 667))
	sb.done[1](controller.Action{Kind: controller.ActionAnnounce, Prefix: sb.reqs[1], Err: errTest})
	if len(sb.reqs) != 3 {
		t.Fatalf("closed service still mitigates: %v", sb.reqs)
	}
	if got := len(svc.Detector.Alerts()); got != 2 {
		t.Fatalf("alerts = %d, want 2 (detection goes on after Close)", got)
	}
}

var errTest = errors.New("southbound down")
