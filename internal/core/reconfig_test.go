package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// reconfigStage is one segment of a reconfiguration schedule: process
// events [from, to) under the config active when the stage starts, then
// (unless it is the last stage) swap to next.
type reconfigStage struct {
	to   int
	next *Config
}

// swapSerial applies a config snapshot to raw serial components the same
// way Service.SwapConfig does.
func swapSerial(det *Detector, mon *Monitor, mit *Mitigator, next *Config) {
	det.setConfig(next)
	mon.SetConfig(next)
	mit.setConfig(next)
}

// TestReconfigureSerialPipelineEquivalence is the oracle for live
// reconfiguration: a randomized stream with config swaps interleaved at
// fixed stream positions must yield identical alerts, mitigation records,
// controller announcements, monitor history and final snapshot whether it
// runs through (a) the serial Detector/Monitor with inline swaps or
// (b) the pipeline with the swaps injected as ReconfigureTable barriers
// while batches are in flight.
func TestReconfigureSerialPipelineEquivalence(t *testing.T) {
	base := equivalenceConfig()
	// grown adds owned space that randomEvents' "unrelated" branch hits
	// (172.0.0.0/12 covers every 172.x/24 it generates), so post-swap
	// traffic that was benign becomes sub-prefix hijacks.
	grown := base.Clone()
	grown.OwnedPrefixes = append(grown.OwnedPrefixes, prefix.MustParse("172.0.0.0/12"))
	// shrunk then removes one original prefix, so incidents on it stop
	// alerting while its dedup history survives.
	shrunk := grown.Clone()
	shrunk.OwnedPrefixes = append([]prefix.Prefix(nil), grown.OwnedPrefixes[1:]...)

	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			evs := randomEvents(rng, 3000)
			k1 := 500 + rng.Intn(1000)
			k2 := k1 + 100 + rng.Intn(1000)
			stages := []reconfigStage{
				{to: k1, next: grown},
				{to: k2, next: shrunk},
				{to: len(evs)},
			}
			now := func() time.Duration { return 0 }

			// Serial reference: per-event processing, swaps inline.
			serialAnn := &recordingAnnouncer{}
			serialDet := NewDetector(base)
			serialMon := NewMonitor(base)
			serialMit := NewMitigator(base, serialAnn, now)
			serialQ := NewMitigationQueue(serialMit.HandleAlert, MitigationQueueConfig{Synchronous: true}, nil)
			serialDet.OnAlert(serialQ.Enqueue)
			from := 0
			for _, st := range stages {
				for _, ev := range evs[from:st.to] {
					serialDet.Process(ev)
					serialMon.Process(ev)
				}
				from = st.to
				if st.next != nil {
					swapSerial(serialDet, serialMon, serialMit, st.next)
				}
			}
			serialQ.Close()

			// Pipeline under test: batched submission with ReconfigureTable
			// barriers at the same stream positions.
			pipeAnn := &recordingAnnouncer{}
			pipeDet := NewDetector(base)
			pipeMon := NewMonitor(base)
			pipeMit := NewMitigator(base, pipeAnn, now)
			pipeQ := NewMitigationQueue(pipeMit.HandleAlert, MitigationQueueConfig{Depth: 2}, nil)
			pipeDet.OnAlert(pipeQ.Enqueue)
			p := newPipeline(pipeDet, pipeMon, PipelineConfig{QueueDepth: 4})
			from = 0
			for _, st := range stages {
				for i := from; i < st.to; i += 37 { // uneven batch boundaries
					end := min(i+37, st.to)
					p.Submit(evs[i:end])
				}
				from = st.to
				if st.next != nil {
					next := st.next
					p.ReconfigureTable(oneTenant(pipeDet, pipeMon, next, p.table.Runtime("")), func() {
						pipeDet.setConfig(next)
						pipeMon.SetConfig(next)
						pipeMit.setConfig(next)
					})
				}
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
			// The incrementally maintained partition agrees with the
			// from-scratch oracle after probe-set swaps.
			if re := pipeMon.Rescore(0); re != gotSnap {
				t.Fatalf("rescore oracle disagrees after reconfig: %+v vs %+v", re, gotSnap)
			}
			if snap := p.Snapshot(); snap.Reconfigs != 2 {
				t.Fatalf("expected 2 reconfig barriers, got %d", snap.Reconfigs)
			}
		})
	}
}

// TestReconfigureConcurrentSubmitters exercises the swap under the race
// detector with many goroutines submitting while reconfigurations cycle
// the owned set: every batch must classify against exactly one snapshot
// (no torn rel/ownedIdx), and the pipeline must stay consistent.
func TestReconfigureConcurrentSubmitters(t *testing.T) {
	cfgA := equivalenceConfig()
	cfgB := cfgA.Clone()
	cfgB.OwnedPrefixes = append(cfgB.OwnedPrefixes, prefix.MustParse("172.0.0.0/12"))

	det := NewDetector(cfgA)
	mon := NewMonitor(cfgA)
	p := newPipeline(det, mon, PipelineConfig{QueueDepth: 8})

	stop := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Submit(randomEvents(rng, 50))
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		next := cfgA
		if i%2 == 0 {
			next = cfgB
		}
		p.ReconfigureTable(oneTenant(det, mon, next, p.table.Runtime("")), func() {
			det.setConfig(next)
			mon.SetConfig(next)
		})
	}
	close(stop)
	for g := 0; g < 4; g++ {
		<-done
	}
	p.Close()
	// Sanity: the final partition agrees with the oracle.
	if got, want := mon.Snapshot(0), mon.Rescore(0); got != want {
		t.Fatalf("snapshot %+v disagrees with rescore %+v", got, want)
	}
}

// TestServiceReconfigureSerial covers the pipeline-less path: SwapConfig
// called directly retunes the detector at once.
func TestServiceReconfigureSerial(t *testing.T) {
	cfg := &Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:  []bgp.ASN{61000},
		// Keep mitigation manual: this test drives the detector directly.
		ManualMitigation: true,
	}
	svc, err := NewService(cfg, nil, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	hijack := feedtypes.Event{
		Source: "test", VantagePoint: 100, Kind: feedtypes.Announce,
		Prefix: prefix.MustParse("172.16.0.0/24"), Path: []bgp.ASN{100, 2000, 666},
	}
	svc.Detector.Process(hijack)
	if n := svc.Detector.AlertCount(); n != 0 {
		t.Fatalf("alert for unowned prefix: %d", n)
	}

	next := svc.CurrentConfig().Clone()
	next.OwnedPrefixes = append(next.OwnedPrefixes, prefix.MustParse("172.16.0.0/22"))
	svc.SwapConfig(next)
	svc.Detector.Process(hijack)
	if n := svc.Detector.AlertCount(); n != 1 {
		t.Fatalf("hot-added prefix not detected: %d alerts", n)
	}
	if got := svc.CurrentConfig().OwnedPrefixes; len(got) != 2 {
		t.Fatalf("CurrentConfig not updated: %v", got)
	}
}
