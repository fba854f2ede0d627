package core

import (
	"fmt"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
	"artemis/internal/peering"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

// attach subscribes svc's detector and monitor to feed, filtered to the
// owned space in both directions as a node's ingest filters it.
func attach(svc *Service, feed feedtypes.Source) {
	f := feedtypes.Filter{Prefixes: svc.CurrentConfig().OwnedPrefixes, MoreSpecific: true, LessSpecific: true}
	feed.Subscribe(f, svc.Detector.Process)
	feed.Subscribe(f, svc.Monitor.Process)
}

// TestEndToEndDetectAndMitigate runs the paper's §3 protocol on a small
// deterministic topology: announce, hijack, detect via a feed, mitigate
// via the controller, verify the data plane returns to the victim.
func TestEndToEndDetectAndMitigate(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.Stubs = 80
	tp, err := topo.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stub0 := topo.FirstASN + bgp.ASN(cfg.Tier1+cfg.Transit)
	victim, err := peering.Attach(tp, 61000, []bgp.ASN{stub0, stub0 + 1}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := peering.Attach(tp, 61001, []bgp.ASN{stub0 + 20, stub0 + 21}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine(42)
	nw := simnet.New(tp, eng, simnet.Config{})
	owned := prefix.MustParse("10.0.0.0/23")

	// Monitoring: one RIS-style collector peering with a few transit ASes.
	feed := ris.New(nw, []ris.CollectorConfig{{
		Name:       "rrc00",
		Peers:      []bgp.ASN{topo.FirstASN + 10, topo.FirstASN + 20, topo.FirstASN + 40},
		BatchDelay: 10 * time.Second,
	}})

	ctrl := controller.NewSim(nw, victim.Bind(nw))
	artemis, err := NewService(&Config{
		OwnedPrefixes: []prefix.Prefix{owned},
		LegitOrigins:  []bgp.ASN{victim.ASN},
	}, ctrl, eng.Now)
	if err != nil {
		t.Fatal(err)
	}
	attach(artemis, feed)

	// Phase 1: victim announces, wait for convergence.
	victim.Announce(nw, owned)
	eng.Run()
	if len(artemis.Detector.Alerts()) != 0 {
		t.Fatalf("false alert during setup: %+v", artemis.Detector.Alerts())
	}

	// Phase 2: hijack.
	hijackAt := eng.Now()
	attacker.Announce(nw, owned)
	eng.Run()

	alerts := artemis.Detector.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Type != AlertExactOrigin || alerts[0].Origin != attacker.ASN {
		t.Fatalf("alert = %+v", alerts[0])
	}
	detectionDelay := alerts[0].DetectedAt - hijackAt
	if detectionDelay <= 0 || detectionDelay > 90*time.Second {
		t.Fatalf("detection delay = %v", detectionDelay)
	}

	// Phase 3 happened automatically: mitigation announced the /24s and
	// the network converged back. Check the data plane at every AS.
	recs := artemis.Mitigator.Records()
	if len(recs) != 1 || len(recs[0].Prefixes) != 2 {
		t.Fatalf("mitigation records = %+v", recs)
	}
	captured := 0
	for _, asn := range tp.ASes() {
		for _, addr := range []prefix.Addr{prefix.MustParseAddr("10.0.0.1"), prefix.MustParseAddr("10.0.1.1")} {
			origin, ok := nw.Node(asn).ResolveOrigin(addr)
			if !ok {
				t.Fatalf("AS %v lost the route", asn)
			}
			if origin == attacker.ASN {
				captured++
			}
		}
	}
	if captured != 0 {
		t.Fatalf("%d (AS, probe) pairs still captured after mitigation", captured)
	}
}

func TestManualMitigationMode(t *testing.T) {
	tp := topo.Line(3, time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	inj, _ := controller.NewSimInjector(nw, topo.FirstASN)
	ctrl := controller.NewSim(nw, inj, controller.WithConfigDelay(time.Second))
	feed := ris.New(nw, []ris.CollectorConfig{{Name: "c", Peers: []bgp.ASN{topo.FirstASN + 2}, BatchDelay: time.Second}})

	svc, err := NewService(&Config{
		OwnedPrefixes:    []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:     []bgp.ASN{topo.FirstASN},
		ManualMitigation: true,
	}, ctrl, eng.Now)
	if err != nil {
		t.Fatal(err)
	}
	attach(svc, feed)
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	eng.Run()
	nw.Announce(topo.FirstASN+1, prefix.MustParse("10.0.0.0/23")) // hijack
	eng.Run()
	if len(svc.Detector.Alerts()) != 1 {
		t.Fatalf("alerts = %+v", svc.Detector.Alerts())
	}
	if len(svc.Mitigator.Records()) != 0 {
		t.Fatal("mitigation ran despite manual mode")
	}
	// Operator pulls the trigger.
	svc.Mitigator.HandleAlert(svc.Detector.Alerts()[0])
	eng.Run()
	if len(svc.Mitigator.Records()) != 1 {
		t.Fatal("manual mitigation did not run")
	}
	svc.Close()
}

// flakyInjector fails every announce until the failure budget is spent —
// a southbound outage that heals.
type flakyInjector struct{ failures int }

func (f *flakyInjector) AnnounceRoute(prefix.Prefix) error {
	if f.failures > 0 {
		f.failures--
		return fmt.Errorf("southbound down")
	}
	return nil
}
func (f *flakyInjector) WithdrawRoute(prefix.Prefix) error { return nil }

// TestServiceRetriesFailedMitigation: a transient southbound outage must
// not leave the hijack unmitigated — the controller failure feedback
// releases the incident and the service re-enqueues it (bounded by
// MaxMitigationRetries), so the announcements eventually apply.
func TestServiceRetriesFailedMitigation(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := &flakyInjector{failures: 3}
	ctrl := controller.New(inj, eng.Now, eng.After, controller.WithConfigDelay(time.Second))
	svc, err := NewService(&Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:  []bgp.ASN{topo.FirstASN},
	}, ctrl, eng.Now)
	if err != nil {
		t.Fatal(err)
	}
	// One hijack alert straight into the detector.
	svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, 666))
	eng.Run() // drains announce → fail → release → retry cycles

	if svc.Mitigator.Failures() == 0 {
		t.Fatal("southbound failures not counted")
	}
	applied := map[string]bool{}
	for _, a := range ctrl.Applied() {
		applied[a.Prefix.String()] = true
	}
	if !applied["10.0.0.0/24"] || !applied["10.0.1.0/24"] {
		t.Fatalf("mitigation never fully applied after retries: %v (failures=%d)", applied, svc.Mitigator.Failures())
	}
	svc.Close()
}

// TestServiceRetryBounded: a permanently dead southbound stops retrying
// after MaxMitigationRetries instead of looping forever.
func TestServiceRetryBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := &flakyInjector{failures: 1 << 30}
	ctrl := controller.New(inj, eng.Now, eng.After, controller.WithConfigDelay(time.Second))
	svc, err := NewService(&Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:  []bgp.ASN{topo.FirstASN},
	}, ctrl, eng.Now)
	if err != nil {
		t.Fatal(err)
	}
	svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, 666))
	eng.Run() // must terminate: the retry loop is bounded

	if got := ctrl.Failures(); got == 0 {
		t.Fatal("no controller failures recorded")
	}
	if len(ctrl.Applied()) != 0 {
		t.Fatalf("dead southbound applied actions: %+v", ctrl.Applied())
	}
	svc.Close()
}

func TestServiceRejectsBadConfig(t *testing.T) {
	if _, err := NewService(&Config{}, nil, func() time.Duration { return 0 }); err == nil {
		t.Fatal("empty config accepted")
	}
}
