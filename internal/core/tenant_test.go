package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/sim"
)

// tenantConfigs builds three tenant configs with deliberately hostile
// overlap: bravo's /24 is nested inside alpha's /23, charlie's 192.0.2.0/24
// is identical to alpha's, and charlie's /9 covers both of alpha's 10.x
// blocks — so most 10.x events fan out to two or three tenants, each with
// a different relation (sub-prefix for one, exact for another).
func tenantConfigs() map[string]*Config {
	return map[string]*Config{
		"alpha": {
			OwnedPrefixes: []prefix.Prefix{
				prefix.MustParse("10.0.0.0/23"),
				prefix.MustParse("10.1.0.0/22"),
				prefix.MustParse("192.0.2.0/24"),
			},
			LegitOrigins:     []bgp.ASN{61000},
			AllowedUpstreams: map[bgp.ASN][]bgp.ASN{61000: {2000, 2001}},
		},
		"bravo": {
			OwnedPrefixes: []prefix.Prefix{
				prefix.MustParse("10.0.0.0/24"),
				prefix.MustParse("198.51.100.0/24"),
			},
			LegitOrigins: []bgp.ASN{61001},
		},
		"charlie": {
			OwnedPrefixes: []prefix.Prefix{
				prefix.MustParse("192.0.2.0/24"),
				prefix.MustParse("10.0.0.0/9"),
				prefix.MustParse("203.0.113.0/24"),
			},
			LegitOrigins: []bgp.ASN{61000, 61002},
		},
	}
}

// tenantHarness is one tenant's full observable surface: detector,
// monitor, synchronous mitigation, recorded announcements.
type tenantHarness struct {
	cfg *Config
	det *Detector
	mon *Monitor
	mit *Mitigator
	ann *recordingAnnouncer
}

// newTenantHarness wires one tenant's stack. Its alerts are mitigated
// through q, a queue tenants may share as a node's do, or inline when q
// is nil.
func newTenantHarness(cfg *Config, q *MitigationQueue) *tenantHarness {
	h := &tenantHarness{
		cfg: cfg,
		det: NewDetector(cfg),
		mon: NewMonitor(cfg),
		ann: &recordingAnnouncer{},
	}
	h.mit = NewMitigator(cfg, h.ann, func() time.Duration { return 0 })
	if q == nil {
		h.det.OnAlert(h.mit.HandleAlert)
	} else {
		h.det.OnAlert(func(a Alert) { q.Enqueue(h.mit, a) })
	}
	return h
}

// TestMultiTenantEquivalence is the hosted-detection oracle: one shared
// multi-tenant pipeline fed the full event stream must be observably
// identical, per tenant, to N independent single-tenant pipelines each fed
// the slice of the stream its own feed filter (owned space, both
// directions) would have passed — alerts, per-source tallies, mitigation
// records, controller announcements, monitor history, snapshot and
// rescore all agree, across overlapping and nested cross-tenant prefixes.
func TestMultiTenantEquivalence(t *testing.T) {
	names := []string{"alpha", "bravo", "charlie"}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			evs := randomEvents(rand.New(rand.NewSource(seed)), 3000)

			// Independent reference: one pipeline per tenant, fed the
			// filter-passed slice of the stream with the same (uneven)
			// batch boundaries.
			indep := map[string]*tenantHarness{}
			for _, name := range names {
				h := newTenantHarness(tenantConfigs()[name], nil)
				p := newPipeline(h.det, h.mon, PipelineConfig{QueueDepth: 4})
				filter := feedtypes.Filter{
					Prefixes:     h.cfg.OwnedPrefixes,
					MoreSpecific: true,
					LessSpecific: true,
				}
				var pass []feedtypes.Event
				for i := 0; i < len(evs); i += 41 {
					pass = pass[:0]
					for _, ev := range evs[i:min(i+41, len(evs))] {
						if filter.Match(ev.Prefix) {
							pass = append(pass, ev)
						}
					}
					p.Submit(pass)
				}
				p.Close()
				indep[name] = h
			}

			// Shared pipeline: every tenant on one hot path and one
			// mitigation queue, full stream.
			shared := map[string]*tenantHarness{}
			var policies []TenantPolicy
			q := NewMitigationQueue(2)
			for _, name := range names {
				h := newTenantHarness(tenantConfigs()[name], q)
				shared[name] = h
				policies = append(policies, TenantPolicy{
					Name: name, Config: h.cfg, Detector: h.det, Monitor: h.mon,
				})
			}
			table, err := NewPolicyTable(policies)
			if err != nil {
				t.Fatal(err)
			}
			p := NewPipelineTable(table, PipelineConfig{QueueDepth: 4})
			for i := 0; i < len(evs); i += 41 {
				p.Submit(evs[i:min(i+41, len(evs))])
			}
			p.Close()
			q.Close()

			for _, name := range names {
				got, want := shared[name], indep[name]
				if g, w := got.det.Alerts(), want.det.Alerts(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tenant %s alerts diverge: shared %d independent %d", name, len(g), len(w))
				}
				if g, w := got.det.EventsBySource(), want.det.EventsBySource(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tenant %s per-source tallies diverge:\n shared      %v\n independent %v", name, g, w)
				}
				if g, w := got.mit.Records(), want.mit.Records(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tenant %s mitigation records diverge:\n shared      %+v\n independent %+v", name, g, w)
				}
				if g, w := got.ann.all(), want.ann.all(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tenant %s announcements diverge:\n shared      %v\n independent %v", name, g, w)
				}
				if g, w := got.mon.History(), want.mon.History(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tenant %s history diverges: %d vs %d change-points", name, len(g), len(w))
				}
				gs, ws := got.mon.Snapshot(0), want.mon.Snapshot(0)
				if gs != ws {
					t.Fatalf("tenant %s snapshot diverges: %+v vs %+v", name, gs, ws)
				}
				if re := got.mon.Rescore(0); re != gs {
					t.Fatalf("tenant %s incremental snapshot %+v != rescore %+v", name, gs, re)
				}
			}
		})
	}
}

// TestMultiTenantReconfigureOne: retuning one tenant with a rebuilt table
// swaps that tenant's policy at a barrier while the other tenants' state
// (and runtime counters) carry over untouched.
func TestMultiTenantReconfigureOne(t *testing.T) {
	cfgs := tenantConfigs()
	a, b := newTenantHarness(cfgs["alpha"], nil), newTenantHarness(cfgs["bravo"], nil)
	table, err := NewPolicyTable([]TenantPolicy{
		{Name: "alpha", Config: a.cfg, Detector: a.det, Monitor: a.mon},
		{Name: "bravo", Config: b.cfg, Detector: b.det, Monitor: b.mon},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipelineTable(table, PipelineConfig{})
	defer p.Close()

	p.SubmitWait([]feedtypes.Event{announceEvent("10.0.0.0/24", 1001, 666)})
	if got := len(a.det.Alerts()); got != 1 { // sub-prefix of alpha's /23
		t.Fatalf("alpha alerts = %d", got)
	}
	if got := len(b.det.Alerts()); got != 1 { // exact hijack of bravo's /24
		t.Fatalf("bravo alerts = %d", got)
	}
	bravoEvents := table.Runtime("bravo").Events()

	// Alpha sheds its 10.x space; bravo must be unaffected.
	next := a.cfg.Clone()
	next.OwnedPrefixes = []prefix.Prefix{prefix.MustParse("192.0.2.0/24")}
	nextTable, err := NewPolicyTable([]TenantPolicy{
		{Name: "alpha", Config: next, Detector: a.det, Monitor: a.mon, Runtime: table.Runtime("alpha")},
		{Name: "bravo", Config: b.cfg, Detector: b.det, Monitor: b.mon, Runtime: table.Runtime("bravo")},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ReconfigureTable(nextTable, func() { a.det.setConfig(next) })

	p.SubmitWait([]feedtypes.Event{announceEvent("10.0.0.0/24", 1002, 667)})
	if got := len(a.det.Alerts()); got != 1 {
		t.Fatalf("alpha still matched after shedding 10.x: %d alerts", got)
	}
	if got := len(b.det.Alerts()); got != 2 {
		t.Fatalf("bravo alerts after alpha's reconfigure = %d, want 2", got)
	}
	if got := p.table.Runtime("bravo").Events(); got != bravoEvents+1 {
		t.Fatalf("bravo runtime did not carry across the swap: %d -> %d", bravoEvents, got)
	}
}

// TestNewPolicyTableRejects: a table is refused whole when any tenant is
// incomplete or invalid, or when two tenants share a name.
func TestNewPolicyTableRejects(t *testing.T) {
	ok := tenantConfigs()["alpha"]
	det := NewDetector(ok)
	for _, tc := range []struct {
		name    string
		tenants []TenantPolicy
		want    string
	}{
		{"no tenants", nil, "at least one tenant"},
		{"nil detector", []TenantPolicy{{Name: "a", Config: ok}}, "has no detector"},
		{"nil config", []TenantPolicy{{Name: "a", Detector: det}}, "has no config"},
		{"invalid config", []TenantPolicy{{Name: "a", Config: &Config{}, Detector: det}}, `tenant "a": `},
		{"duplicate name", []TenantPolicy{
			{Name: "a", Config: ok, Detector: det},
			{Name: "a", Config: ok, Detector: det},
		}, "duplicate tenant name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table, err := NewPolicyTable(tc.tenants)
			if err == nil {
				t.Fatalf("accepted: %v", table.Tenants())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNoisyTenantQuotaIsolation is the adversarial fairness test: a tenant
// with a 50k-prefix-scale event storm and a MaxEventsPerSecond quota must
// have its classification work bounded by the quota — the drops are
// counted and reported — while a quiet tenant sharing the pipeline keeps
// exact, loss-free detection. Work done per tenant, not wall-clock, is the
// asserted bound: it is what caps the noisy tenant's latency impact on
// everyone else regardless of machine speed.
func TestNoisyTenantQuotaIsolation(t *testing.T) {
	quietCfg := &Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("192.0.2.0/24")},
		LegitOrigins:  []bgp.ASN{61000},
	}
	noisyCfg := &Config{
		OwnedPrefixes:      []prefix.Prefix{prefix.MustParse("10.0.0.0/8")},
		LegitOrigins:       []bgp.ASN{61001},
		MaxEventsPerSecond: 100,
	}
	quiet, noisy := newTenantHarness(quietCfg, nil), newTenantHarness(noisyCfg, nil)
	table, err := NewPolicyTable([]TenantPolicy{
		{Name: "quiet", Config: quietCfg, Detector: quiet.det, Monitor: quiet.mon},
		{Name: "noisy", Config: noisyCfg, Detector: noisy.det, Monitor: noisy.mon},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	reported := int64(0)
	table.OnQuotaDrop(func(tenant string, n int64) {
		dropMu.Lock()
		defer dropMu.Unlock()
		if tenant != "noisy" {
			t.Errorf("quota drop attributed to %q", tenant)
		}
		reported += n
	})
	p := NewPipelineTable(table, PipelineConfig{})

	// Half a second of a 10k events/sec hijack storm against the noisy
	// tenant, with the quiet tenant's trickle interleaved on the same
	// timeline.
	const storm = 5000
	quietSent := 0
	batch := make([]feedtypes.Event, 0, 64)
	for i := 0; i < storm; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		ev := feedtypes.Event{
			Source: "storm", Collector: "c0", VantagePoint: 1001,
			Kind:   feedtypes.Announce,
			Prefix: prefix.New(prefix.AddrFrom4(uint32(10<<24)|uint32(i%1024)<<8), 24),
			Path:   []bgp.ASN{1001, 2000, 666},
			SeenAt: at, EmittedAt: at,
		}
		batch = append(batch, ev)
		if i%10 == 0 {
			quietSent++
			batch = append(batch, feedtypes.Event{
				Source: "quiet-src", Collector: "c0", VantagePoint: 1002,
				Kind:   feedtypes.Announce,
				Prefix: prefix.MustParse("192.0.2.0/24"),
				Path:   []bgp.ASN{1002, 2000, bgp.ASN(660 + i%3)},
				SeenAt: at, EmittedAt: at,
			})
		}
		if len(batch) >= 60 {
			p.SubmitWait(batch)
			batch = batch[:0]
		}
	}
	p.SubmitWait(batch)
	p.Close()

	// The quiet tenant lost nothing: every event classified, every
	// distinct incident alerted, zero drops.
	if got := quiet.det.EventsBySource()["quiet-src"]; got != quietSent {
		t.Fatalf("quiet tenant classified %d/%d events", got, quietSent)
	}
	if got := len(quiet.det.Alerts()); got != 3 { // one per attacker origin
		t.Fatalf("quiet tenant alerts = %d, want 3", got)
	}
	if got := table.Runtime("quiet").QuotaDrops(); got != 0 {
		t.Fatalf("quiet tenant recorded %d quota drops", got)
	}

	// The noisy tenant's classification work is bounded by its quota:
	// a 100/sec budget over a 0.5s storm admits the 100-token burst plus
	// ~50 refilled tokens, not 5000 events.
	rt := table.Runtime("noisy")
	classified, dropped := rt.Events(), rt.QuotaDrops()
	if classified+dropped != storm {
		t.Fatalf("noisy accounting leak: %d classified + %d dropped != %d", classified, dropped, storm)
	}
	if classified > 200 {
		t.Fatalf("noisy tenant classified %d events, quota should bound it near 150", classified)
	}
	if dropped == 0 {
		t.Fatal("storm produced no quota drops")
	}
	dropMu.Lock()
	defer dropMu.Unlock()
	if reported != dropped {
		t.Fatalf("OnQuotaDrop reported %d, counter says %d", reported, dropped)
	}
}

// TestHotTuneDedupBounds: a config swap retunes the live alert-dedup window
// in place — shrinking the TTL expires aged incidents immediately (so a
// recurring hijack re-alerts), and shrinking the size bound evicts down to
// the new cap. Both were construction-time-only before.
func TestHotTuneDedupBounds(t *testing.T) {
	cfg := &Config{
		OwnedPrefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:  []bgp.ASN{61000},
	}
	det := NewDetector(cfg) // TTL 0: incidents dedup forever
	hijack := func(at time.Duration) feedtypes.Event {
		return feedtypes.Event{
			Source: "test", Collector: "c0", VantagePoint: 1001,
			Kind: feedtypes.Announce, Prefix: prefix.MustParse("10.0.0.0/23"),
			Path: []bgp.ASN{1001, 2000, 666}, SeenAt: at, EmittedAt: at,
		}
	}
	det.Process(hijack(0))
	det.Process(hijack(time.Hour))
	if got := len(det.Alerts()); got != 1 {
		t.Fatalf("alerts with unbounded dedup = %d, want 1", got)
	}

	next := cfg.Clone()
	next.AlertDedupTTL = time.Minute
	det.setConfig(next)
	if got := det.DedupSize(); got != 0 {
		t.Fatalf("dedup set after TTL shrink = %d, want 0 (incident aged out)", got)
	}
	det.Process(hijack(time.Hour + time.Second))
	if got := len(det.Alerts()); got != 2 {
		t.Fatalf("recurring hijack after TTL shrink raised %d alerts, want 2", got)
	}

	// Size-bound shrink evicts oldest down to the cap.
	for i := 0; i < 8; i++ {
		det.Process(announceEvent("10.0.0.0/23", 1001, bgp.ASN(700+i)))
	}
	if got := det.DedupSize(); got < 8 {
		t.Fatalf("dedup set = %d, want >= 8", got)
	}
	capped := next.Clone()
	capped.AlertDedupMax = 2
	det.setConfig(capped)
	if got := det.DedupSize(); got != 2 {
		t.Fatalf("dedup set after max shrink = %d, want 2", got)
	}
}

// TestMitigationRateLimit: MitigationRatePerMin bounds automatic
// alert→mitigation dispatches; excess alerts stay visible (and counted)
// but are not mitigated, and the drop callback observes them.
func TestMitigationRateLimit(t *testing.T) {
	eng := sim.NewEngine(1)
	inj := &flakyInjector{} // always succeeds
	ctrl := controller.New(inj, eng.Now, eng.After, controller.WithConfigDelay(time.Second))
	cfg := &Config{
		OwnedPrefixes:        []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:         []bgp.ASN{61000},
		MitigationRatePerMin: 2,
	}
	svc, err := NewService(cfg, ctrl, eng.Now)
	if err != nil {
		t.Fatal(err)
	}
	var dropped []Alert
	svc.OnMitigationDrop(func(a Alert) { dropped = append(dropped, a) })

	for i := 0; i < 5; i++ {
		svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, bgp.ASN(666+i)))
	}
	eng.Run()
	if got := len(svc.Detector.Alerts()); got != 5 {
		t.Fatalf("alerts = %d, want 5 (detection is never rate-limited)", got)
	}
	if got := len(svc.Mitigator.Records()); got != 2 {
		t.Fatalf("mitigations = %d, want 2 (burst allowance)", got)
	}
	if got := svc.MitigationRateDrops(); got != 3 {
		t.Fatalf("rate drops = %d, want 3", got)
	}
	if len(dropped) != 3 {
		t.Fatalf("drop callback saw %d alerts, want 3", len(dropped))
	}

	// A minute later the bucket has refilled.
	eng.After(time.Minute, func() {
		svc.Detector.Process(announceEvent("10.0.0.0/23", 1001, 900))
	})
	eng.Run()
	if got := len(svc.Mitigator.Records()); got != 3 {
		t.Fatalf("mitigations after refill = %d, want 3", got)
	}
	svc.Close()
}

// TestHotTuneMitigationRetries: the retry bound is read from the active
// snapshot on every southbound failure, so retuning it mid-incident
// applies immediately.
func TestHotTuneMitigationRetries(t *testing.T) {
	cfg := &Config{
		OwnedPrefixes:        []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		LegitOrigins:         []bgp.ASN{61000},
		MaxMitigationRetries: 3,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(cfg, nil, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.CurrentConfig().MaxMitigationRetries; got != 3 {
		t.Fatalf("MaxMitigationRetries = %d", got)
	}
	next := cfg.Clone()
	next.MaxMitigationRetries = 1
	svc.SwapConfig(next)
	if got := svc.CurrentConfig().MaxMitigationRetries; got != 1 {
		t.Fatalf("MaxMitigationRetries after reconfigure = %d", got)
	}
}
