package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// recordingAnnouncer is a deterministic RouteAnnouncer: it accepts
// everything and remembers the order of announcements.
type recordingAnnouncer struct {
	mu        sync.Mutex
	announced []prefix.Prefix
}

func (r *recordingAnnouncer) Announce(p prefix.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.announced = append(r.announced, p)
	return nil
}

func (r *recordingAnnouncer) all() []prefix.Prefix {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]prefix.Prefix(nil), r.announced...)
}

// randomEvents builds a seeded stream exercising every classification
// branch: benign routes (with and without origin prepending), exact-,
// sub- and super-prefix hijacks, path anomalies, withdrawals, stale
// re-deliveries, and unrelated prefixes.
func randomEvents(rng *rand.Rand, n int) []feedtypes.Event {
	owned := []string{"10.0.0.0/23", "10.1.0.0/22", "192.0.2.0/24", "198.51.100.0/24", "203.0.113.0/24"}
	sources := []string{"ris", "bgpmon", "periscope"}
	evs := make([]feedtypes.Event, 0, n)
	for i := 0; i < n; i++ {
		vp := bgp.ASN(100 + rng.Intn(16))
		at := time.Duration(rng.Intn(n)) * time.Millisecond // deliberately non-monotonic: stale paths
		ev := feedtypes.Event{
			Source:       sources[rng.Intn(len(sources))],
			Collector:    "c0",
			VantagePoint: vp,
			Kind:         feedtypes.Announce,
			SeenAt:       at,
			EmittedAt:    time.Duration(i) * time.Millisecond,
		}
		switch rng.Intn(10) {
		case 0, 1, 2: // benign, possibly prepended
			ev.Prefix = prefix.MustParse(owned[rng.Intn(len(owned))])
			ev.Path = []bgp.ASN{vp, 2000, 61000}
			for p := rng.Intn(3); p > 0; p-- {
				ev.Path = append(ev.Path, 61000)
			}
		case 3: // exact-origin hijack from a small attacker pool
			ev.Prefix = prefix.MustParse(owned[rng.Intn(len(owned))])
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(660 + rng.Intn(4))}
		case 4: // sub-prefix hijack
			ev.Prefix = prefix.MustParse("10.1.2.0/24")
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(660 + rng.Intn(4))}
		case 5: // squat
			ev.Prefix = prefix.MustParse("192.0.0.0/16")
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(660 + rng.Intn(4))}
		case 6: // path anomaly candidate: legit origin, random upstream
			ev.Prefix = prefix.MustParse("10.0.0.0/23")
			ev.Path = []bgp.ASN{vp, bgp.ASN(2000 + rng.Intn(4)), 61000, 61000}
		case 7: // withdrawal
			ev.Kind = feedtypes.Withdraw
			ev.Prefix = prefix.MustParse(owned[rng.Intn(len(owned))])
		default: // unrelated
			ev.Prefix = prefix.New(prefix.AddrFrom4(uint32(172<<24)|uint32(rng.Intn(1<<12))<<8), 24)
			ev.Path = []bgp.ASN{vp, 2000, bgp.ASN(3000 + rng.Intn(16))}
		}
		evs = append(evs, ev)
	}
	return evs
}

func equivalenceConfig() *Config {
	cfg := multiOwnedConfig()
	cfg.AllowedUpstreams = map[bgp.ASN][]bgp.ASN{61000: {2000, 2001}}
	return cfg
}

// TestSerialPipelineMitigationEquivalence is the end-to-end oracle for
// the incremental sink: the same randomized stream through (a) the serial
// Detector+Monitor with inline mitigation and (b) the sharded pipeline
// with the incremental monitor and an async mitigation queue must yield
// identical alerts, mitigation records, controller announcements, history
// and final snapshot.
func TestSerialPipelineMitigationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			evs := randomEvents(rand.New(rand.NewSource(seed)), 3000)
			now := func() time.Duration { return 0 }

			// Serial reference: inline (synchronous) mitigation.
			serialAnn := &recordingAnnouncer{}
			serialDet := NewDetector(equivalenceConfig())
			serialMon := NewMonitor(equivalenceConfig())
			serialMit := NewMitigator(equivalenceConfig(), serialAnn, now)
			serialDet.OnAlert(serialMit.HandleAlert)
			for _, ev := range evs {
				serialDet.Process(ev)
				serialMon.Process(ev)
			}

			// Pipeline under test: async mitigation, small queues for
			// backpressure coverage.
			pipeAnn := &recordingAnnouncer{}
			pipeDet := NewDetector(equivalenceConfig())
			pipeMon := NewMonitor(equivalenceConfig())
			pipeMit := NewMitigator(equivalenceConfig(), pipeAnn, now)
			pipeQ := NewMitigationQueue(2)
			pipeDet.OnAlert(func(a Alert) { pipeQ.Enqueue(pipeMit, a) })
			p := newPipeline(pipeDet, pipeMon, PipelineConfig{QueueDepth: 4})
			for i := 0; i < len(evs); i += 41 { // uneven batch boundaries
				end := min(i+41, len(evs))
				p.Submit(evs[i:end])
			}
			p.Close()
			pipeQ.Close()

			if got, want := pipeDet.Alerts(), serialDet.Alerts(); !reflect.DeepEqual(got, want) {
				t.Fatalf("alerts diverge: pipeline %d serial %d", len(got), len(want))
			}
			if got, want := pipeMit.Records(), serialMit.Records(); !reflect.DeepEqual(got, want) {
				t.Fatalf("mitigation records diverge:\n pipeline %+v\n serial   %+v", got, want)
			}
			if got, want := pipeAnn.all(), serialAnn.all(); !reflect.DeepEqual(got, want) {
				t.Fatalf("controller announcements diverge:\n pipeline %v\n serial   %v", got, want)
			}
			if got, want := pipeMon.History(), serialMon.History(); !reflect.DeepEqual(got, want) {
				t.Fatalf("history diverges: %d vs %d change-points", len(got), len(want))
			}
			gotSnap, wantSnap := pipeMon.Snapshot(0), serialMon.Snapshot(0)
			if gotSnap != wantSnap {
				t.Fatalf("final snapshot diverges: %+v vs %+v", gotSnap, wantSnap)
			}
			// And both agree with the from-scratch oracle.
			if re := pipeMon.Rescore(0); re != gotSnap {
				t.Fatalf("incremental snapshot %+v != rescore %+v", gotSnap, re)
			}
		})
	}
}
