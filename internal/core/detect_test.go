package core

import (
	"fmt"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

func testConfig() *Config {
	return &Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:  []bgp.ASN{61000},
	}
}

func announceEvent(p string, path ...bgp.ASN) feedtypes.Event {
	return feedtypes.Event{
		Source: "test", Collector: "c0", VantagePoint: path[0],
		Kind: feedtypes.Announce, Prefix: prefix.MustParse(p), Path: path,
		SeenAt: time.Second, EmittedAt: 2 * time.Second,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Config{LegitOrigins: []bgp.ASN{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("no owned prefixes accepted")
	}
	bad = &Config{OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")}}
	if err := bad.Validate(); err == nil {
		t.Fatal("no legit origins accepted")
	}
	dup := testConfig()
	dup.OwnedPrefixes = append(dup.OwnedPrefixes, dup.OwnedPrefixes[0])
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate owned prefix accepted")
	}
	badLen := testConfig()
	badLen.MaxDeaggregationLen = 40
	if err := badLen.Validate(); err == nil {
		t.Fatal("bad MaxDeaggregationLen accepted")
	}
}

func TestDetectExactOriginHijack(t *testing.T) {
	d := NewDetector(testConfig())
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	// Legit announcement: no alert.
	d.Process(announceEvent("10.0.0.0/23", 1001, 1002, 61000))
	// Hijack: origin 666.
	d.Process(announceEvent("10.0.0.0/23", 1001, 1002, 666))
	if len(got) != 1 {
		t.Fatalf("alerts = %+v", got)
	}
	a := got[0]
	if a.Type != AlertExactOrigin || a.Origin != 666 || a.Owned.String() != "10.0.0.0/23" {
		t.Fatalf("alert = %+v", a)
	}
	if a.DetectedAt != 2*time.Second {
		t.Fatalf("DetectedAt = %v (must be feed emission time)", a.DetectedAt)
	}
}

func TestDetectSubPrefixHijack(t *testing.T) {
	d := NewDetector(testConfig())
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	d.Process(announceEvent("10.0.1.0/24", 1001, 666))
	if len(got) != 1 || got[0].Type != AlertSubPrefix {
		t.Fatalf("alerts = %+v", got)
	}
}

func TestDetectSquat(t *testing.T) {
	d := NewDetector(testConfig())
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	d.Process(announceEvent("10.0.0.0/16", 1001, 666))
	if len(got) != 1 || got[0].Type != AlertSquat {
		t.Fatalf("alerts = %+v", got)
	}
}

func TestUnrelatedPrefixIgnored(t *testing.T) {
	d := NewDetector(testConfig())
	d.Process(announceEvent("192.0.2.0/24", 1001, 666))
	if len(d.Alerts()) != 0 {
		t.Fatalf("alerts = %+v", d.Alerts())
	}
}

func TestWithdrawalsIgnored(t *testing.T) {
	d := NewDetector(testConfig())
	ev := announceEvent("10.0.0.0/23", 1001, 666)
	ev.Kind = feedtypes.Withdraw
	ev.Path = nil
	d.Process(ev)
	if len(d.Alerts()) != 0 {
		t.Fatal("withdrawal raised an alert")
	}
}

func TestDeduplicationAcrossVPsAndSources(t *testing.T) {
	d := NewDetector(testConfig())
	e1 := announceEvent("10.0.0.0/23", 1001, 666)
	e2 := announceEvent("10.0.0.0/23", 1002, 666)
	e2.Source = "other"
	d.Process(e1)
	d.Process(e2)
	if len(d.Alerts()) != 1 {
		t.Fatalf("alerts = %+v", d.Alerts())
	}
	// A different attacker for the same prefix is a new incident.
	d.Process(announceEvent("10.0.0.0/23", 1001, 667))
	if len(d.Alerts()) != 2 {
		t.Fatalf("alerts = %+v", d.Alerts())
	}
	bySource := d.EventsBySource()
	if bySource["test"] != 2 || bySource["other"] != 1 {
		t.Fatalf("per-source counts = %v", bySource)
	}
}

func TestPathAnomalyDetection(t *testing.T) {
	cfg := testConfig()
	cfg.AllowedUpstreams = map[bgp.ASN][]bgp.ASN{61000: {2000, 2001}}
	d := NewDetector(cfg)
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	// Legit path: upstream 2000 adjacent to origin.
	d.Process(announceEvent("10.0.0.0/23", 1001, 2000, 61000))
	if len(got) != 0 {
		t.Fatalf("false positive on allowed upstream: %+v", got)
	}
	// Type-1 hijack: attacker 666 splices itself next to the origin.
	d.Process(announceEvent("10.0.0.0/23", 1001, 666, 61000))
	if len(got) != 1 || got[0].Type != AlertPathAnomaly || got[0].Origin != 666 {
		t.Fatalf("alerts = %+v", got)
	}
	// Path of just the origin itself (the owner's own VP view): fine.
	d.Process(announceEvent("10.0.0.0/23", 61000))
	if len(got) != 1 {
		t.Fatalf("origin-only path flagged: %+v", got)
	}
}

// TestPathAnomalyWithPrepending: a legitimately prepended path
// (…, upstream, origin, origin, …) must resolve the upstream as the hop
// before the run of origin copies — not flag the origin as its own
// disallowed neighbor.
func TestPathAnomalyWithPrepending(t *testing.T) {
	cfg := testConfig()
	cfg.AllowedUpstreams = map[bgp.ASN][]bgp.ASN{61000: {2000}}
	cases := []struct {
		name      string
		path      []bgp.ASN
		wantAlert bool
		wantUp    bgp.ASN
	}{
		{"no-prepend-allowed", []bgp.ASN{1001, 2000, 61000}, false, 0},
		{"prepend-1-allowed", []bgp.ASN{1001, 2000, 61000, 61000}, false, 0},
		{"prepend-2-allowed", []bgp.ASN{1001, 2000, 61000, 61000, 61000}, false, 0},
		{"prepend-3-allowed", []bgp.ASN{1001, 2000, 61000, 61000, 61000, 61000}, false, 0},
		{"prepend-1-disallowed", []bgp.ASN{1001, 666, 61000, 61000}, true, 666},
		{"prepend-2-disallowed", []bgp.ASN{1001, 666, 61000, 61000, 61000}, true, 666},
		{"prepend-3-disallowed", []bgp.ASN{666, 61000, 61000, 61000, 61000}, true, 666},
		{"origin-only-prepended", []bgp.ASN{61000, 61000, 61000}, false, 0},
	}
	for _, tc := range cases {
		t.Run("serial/"+tc.name, func(t *testing.T) {
			d := NewDetector(cfg)
			d.Process(announceEvent("10.0.0.0/23", tc.path...))
			alerts := d.Alerts()
			if tc.wantAlert {
				if len(alerts) != 1 || alerts[0].Type != AlertPathAnomaly || alerts[0].Origin != tc.wantUp {
					t.Fatalf("alerts = %+v", alerts)
				}
			} else if len(alerts) != 0 {
				t.Fatalf("spurious path-anomaly alert on prepended path: %+v", alerts)
			}
		})
		t.Run("pipeline/"+tc.name, func(t *testing.T) {
			d := NewDetector(cfg)
			p := NewPipeline(d, nil, PipelineConfig{})
			p.SubmitWait([]feedtypes.Event{announceEvent("10.0.0.0/23", tc.path...)})
			p.Close()
			alerts := d.Alerts()
			if tc.wantAlert {
				if len(alerts) != 1 || alerts[0].Type != AlertPathAnomaly || alerts[0].Origin != tc.wantUp {
					t.Fatalf("alerts = %+v", alerts)
				}
			} else if len(alerts) != 0 {
				t.Fatalf("spurious path-anomaly alert on prepended path: %+v", alerts)
			}
		})
	}
}

func TestPathCheckDisabledWithoutPolicy(t *testing.T) {
	d := NewDetector(testConfig()) // no AllowedUpstreams
	d.Process(announceEvent("10.0.0.0/23", 1001, 666, 61000))
	if len(d.Alerts()) != 0 {
		t.Fatal("path anomaly raised without an upstream policy")
	}
}

func TestMultipleOwnedPrefixes(t *testing.T) {
	cfg := testConfig()
	cfg.OwnedPrefixes = append(cfg.OwnedPrefixes, prefix.MustParse("192.0.2.0/24"))
	d := NewDetector(cfg)
	d.Process(announceEvent("192.0.2.0/24", 1001, 666))
	alerts := d.Alerts()
	if len(alerts) != 1 || alerts[0].Owned.String() != "192.0.2.0/24" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestAlertDedupTTLReRaisesExpiredIncidents(t *testing.T) {
	cfg := testConfig()
	cfg.AlertDedupTTL = time.Minute
	d := NewDetector(cfg)
	hijack := func(at time.Duration) feedtypes.Event {
		ev := announceEvent("10.0.0.0/23", 1001, 666)
		ev.SeenAt, ev.EmittedAt = at, at
		return ev
	}
	d.Process(hijack(0))
	d.Process(hijack(30 * time.Second)) // same incident, inside the TTL
	if len(d.Alerts()) != 1 {
		t.Fatalf("alerts = %+v", d.Alerts())
	}
	// Past the TTL the incident is forgotten and re-raised: the hijack is
	// evidently still (or again) live, and a long-running daemon must not
	// stay silent forever on the strength of a years-old dedup entry.
	d.Process(hijack(2 * time.Minute))
	if len(d.Alerts()) != 2 {
		t.Fatalf("expired incident not re-raised: %+v", d.Alerts())
	}
	if d.DedupSize() != 1 {
		t.Fatalf("dedup size = %d, want 1 (expired entry evicted)", d.DedupSize())
	}
}

func TestAlertDedupMaxBoundsTheSet(t *testing.T) {
	cfg := testConfig()
	cfg.AlertDedupMax = 4
	d := NewDetector(cfg)
	for i := 0; i < 16; i++ {
		d.Process(announceEvent("10.0.0.0/23", 1001, bgp.ASN(600+i)))
	}
	if len(d.Alerts()) != 16 {
		t.Fatalf("alerts = %d, want 16 distinct incidents", len(d.Alerts()))
	}
	if d.DedupSize() != 4 {
		t.Fatalf("dedup size = %d, want the configured cap 4", d.DedupSize())
	}
}

func TestPerSourceCounterCardinalityBounded(t *testing.T) {
	d := NewDetector(testConfig())
	for i := 0; i < 3*maxTrackedSources; i++ {
		ev := announceEvent("10.0.0.0/23", 1001, 61000)
		ev.Source = fmt.Sprintf("feed-%d", i)
		d.Process(ev)
	}
	got := d.EventsBySource()
	if len(got) > maxTrackedSources+1 {
		t.Fatalf("per-source map grew to %d entries", len(got))
	}
	if got[otherSources] != 2*maxTrackedSources {
		t.Fatalf("overflow bucket = %d, want %d", got[otherSources], 2*maxTrackedSources)
	}
}

func TestHiddenSubPrefixHijackDetected(t *testing.T) {
	// The attacker announces a more-specific of owned space with a forged
	// path tail ending in the legitimate origin. Origin checks pass, but
	// the operator never announced that prefix — it must alert as a
	// sub-prefix hijack (the paper's "sub-prefix hijacks of all types are
	// detectable" position).
	d := NewDetector(testConfig())
	d.Process(announceEvent("10.0.0.0/24", 50, 666, 61000))
	alerts := d.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("hidden sub-prefix hijack missed: %d alerts", len(alerts))
	}
	if alerts[0].Type != AlertSubPrefix {
		t.Fatalf("alert type = %v, want sub-prefix", alerts[0].Type)
	}
	if alerts[0].Origin != 61000 {
		t.Fatalf("alert origin = %v (the claimed — forged — origin)", alerts[0].Origin)
	}
}

func TestSelfAnnouncedSuppressesOwnMitigation(t *testing.T) {
	// Our own mitigation de-aggregations come back through the feeds as
	// legit-origin sub-prefix announcements. Registered ones never alert;
	// a hijack OF a registered mitigation prefix (wrong origin) still does.
	cfg := testConfig()
	cfg.Self = NewSelfAnnounced()
	cfg.Self.Add(prefix.MustParse("10.0.0.0/24"))
	d := NewDetector(cfg)
	d.Process(announceEvent("10.0.0.0/24", 50, 61000))
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("registered self-announcement raised %d alerts", n)
	}
	d.Process(announceEvent("10.0.0.0/24", 50, 666))
	if n := len(d.Alerts()); n != 1 {
		t.Fatalf("hijack of the mitigation prefix: %d alerts, want 1", n)
	}
}

func TestNestedOwnedSubPrefixIsExpected(t *testing.T) {
	// A /24 listed in OwnedPrefixes alongside its covering /23 (sub-prefix
	// traffic engineering) is an expected announcement even when the
	// linear scan classifies it as rel=sub-prefix of the /23.
	cfg := testConfig()
	cfg.OwnedPrefixes = append(cfg.OwnedPrefixes, prefix.MustParse("10.0.1.0/24"))
	d := NewDetector(cfg)
	d.Process(announceEvent("10.0.1.0/24", 50, 61000))
	if n := len(d.Alerts()); n != 0 {
		t.Fatalf("owned TE sub-prefix raised %d alerts", n)
	}
}

func TestSelfAnnouncedNilSafe(t *testing.T) {
	var s *SelfAnnounced
	s.Add(prefix.MustParse("10.0.0.0/24"))
	s.Remove(prefix.MustParse("10.0.0.0/24"))
	if s.Has(prefix.MustParse("10.0.0.0/24")) || s.Len() != 0 {
		t.Fatal("nil registry must be empty")
	}
	s = NewSelfAnnounced()
	p := prefix.MustParse("10.0.0.0/24")
	s.Add(p)
	if !s.Has(p) || s.Len() != 1 {
		t.Fatal("add not visible")
	}
	s.Remove(p)
	if s.Has(p) || s.Len() != 0 {
		t.Fatal("remove not visible")
	}
}

func TestMitigatorRegistersSelfAnnouncements(t *testing.T) {
	cfg := testConfig()
	cfg.Self = NewSelfAnnounced()
	m := NewMitigator(cfg, announcerFunc(func(p prefix.Prefix) error { return nil }), func() time.Duration { return 0 })
	m.HandleAlert(Alert{Type: AlertExactOrigin, Prefix: prefix.MustParse("10.0.0.0/23"), Owned: prefix.MustParse("10.0.0.0/23"), Origin: 666})
	for _, want := range []string{"10.0.0.0/24", "10.0.1.0/24"} {
		if !cfg.Self.Has(prefix.MustParse(want)) {
			t.Fatalf("mitigation prefix %s not registered", want)
		}
	}
}

type announcerFunc func(prefix.Prefix) error

func (f announcerFunc) Announce(p prefix.Prefix) error { return f(p) }
