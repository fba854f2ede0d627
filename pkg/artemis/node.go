// Package artemis is the embeddable public facade over the ARTEMIS
// reproduction (conf_sigcomm_ChaviarasGSD16): self-operated BGP hijack
// detection and mitigation for the network that owns the prefixes.
//
// A Node assembles the whole stack — batched detection pipeline,
// incremental monitor, bounded async mitigation, supervised multi-source
// ingest — behind one declarative Config and a Run(ctx)/Drain lifecycle:
//
//	cfg, err := artemis.LoadConfig("artemis.yaml")
//	node, err := artemis.New(cfg)
//	sub := node.Subscribe(artemis.KindAll, 64)
//	go consume(sub.C)
//	err = node.Run(ctx) // blocks; drains gracefully on ctx cancel
//
// Everything is live-reconfigurable while traffic flows. Every change to
// owned prefixes, origins, neighbor policy, limits, tenants or the whole
// config (and every ROA refresh) is an edit of the declarative config,
// applied as one policy-table swap at one pipeline barrier: each event
// is classified wholly under the old configuration or wholly under the
// new one, whatever the tenant count, and a rejected change changes
// nothing. Monitoring sources (AddSource/RemoveSource) ride the ingest
// supervisor's hot add/remove. The sibling package pkg/artemis/control
// serves this API over versioned HTTP.
//
// # Multi-tenancy
//
// A hosted node protects many networks at once: Config.Tenants declares
// additional named config scopes (prefixes, origins, neighbor policy,
// limits) beyond the implicit "default" tenant formed by the top-level
// fields. All tenants share ONE pipeline and one feed union — the ingest
// subscription covers every tenant's space, and each matched event is
// classified once per owning tenant under that tenant's own policy.
// Alerts, mitigations, events and metrics are tenant-scoped; per-tenant
// limits (classification quota, mitigation rate, stream buffers) isolate
// a tenant under a hijack storm from the rest. AddTenant/RemoveTenant
// are hot, and with Control.StateFile set every change survives a
// restart.
package artemis

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/core"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/rib"
	"artemis/internal/rpki"
	"artemis/internal/stats"
)

// Node is one embedded ARTEMIS instance — single-tenant by default, a
// hosted multi-tenant deployment when Config.Tenants is set.
type Node struct {
	opts options
	now  func() time.Duration

	pl  *core.Pipeline
	sup *ingest.Supervisor
	bus *eventBus
	// rec, when Config.Record is set, archives the post-dedup event
	// stream to rotated segment files (docs/INTERCHANGE.md). Fixed at
	// construction; nil means no recording.
	rec *eventlog.Recorder
	// Feed-event firehose: bounded taps on the post-dedup stream for
	// GET /v1/events/stream. feedTaps is the hot-path guard — deliver
	// skips the fan-out entirely (no lock, no copies) while it is zero.
	feedMu     sync.Mutex
	feedSubs   map[*EventStreamSub]struct{}
	feedClosed bool
	feedTaps   atomic.Int32
	// injectPool recycles Inject's submission batches: the pipeline copies
	// every batch during Submit, so Inject can build observations in
	// pooled storage and release it immediately — a caller-side inject
	// loop allocates nothing per call at steady state.
	injectPool *feedtypes.BatchPool

	// union is the current feed-filter prefix union across all tenants,
	// stored atomically so dialer goroutines resolve it without taking the
	// node lock (a bounce during reconfiguration holds that lock).
	union atomic.Value // []prefix.Prefix
	// authFailures counts rejected control-plane requests (also published
	// as KindAuth events).
	authFailures atomic.Int64

	// Route intelligence (routeintel.go), fixed at construction: the
	// longest-prefix-match route table behind /v1/lookup (nil when the
	// rib: block is off), its bootstrap statistics, the AS-name registry,
	// and the current ROA table (swapped live by the rpki: refresh loop).
	rib     *rib.Table
	ribLoad rib.LoadStats
	asNames *rib.ASNames
	roas    atomic.Pointer[rpki.Table]

	// Southbound wiring, fixed at construction and reused when tenants
	// are added later.
	inj       controller.RouteInjector
	manual    bool
	ctrlDelay time.Duration

	// mu guards the fields below. cfg (except its Sources, which source
	// CRUD edits in place), tenants, order and table are replaced only
	// together, in applyLocked.
	mu      sync.Mutex
	cfg     *Config // current declarative config
	tenants map[string]*tenantState
	order   []string // table order; order[i] owns policy-table entry i
	table   *core.PolicyTable
	sources map[string]sourceEntry
	srcSeq  map[string]int
	running bool

	drainOnce sync.Once
	drained   chan struct{}
	runExited chan struct{}
}

// tenantState is one tenant's service stack: its own detector, monitor,
// mitigation queue and controller client over the shared pipeline.
type tenantState struct {
	name string
	svc  *core.Service
	ctrl *controller.Controller
}

type sourceEntry struct {
	id   ingest.SourceID
	spec SourceSpec
}

// New validates cfg and assembles a node. Monitoring sources start
// dialing when Run is called; configuration CRUD and Subscribe work
// immediately. cfg is deep-copied.
func New(cfg *Config, opts ...Option) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Clone()
	n := &Node{
		bus:        newEventBus(),
		sources:    make(map[string]sourceEntry),
		srcSeq:     make(map[string]int),
		drained:    make(chan struct{}),
		runExited:  make(chan struct{}),
		injectPool: feedtypes.NewBatchPool(),
		feedSubs:   make(map[*EventStreamSub]struct{}),
	}
	for _, o := range opts {
		o(&n.opts)
	}
	n.now = n.opts.now
	if n.now == nil {
		start := time.Now()
		n.now = func() time.Duration { return time.Since(start) }
	}
	if n.opts.logf == nil {
		n.opts.logf = log.Printf
	}

	// Route-intelligence state loads before the tenant stacks: their core
	// configs embed the ROA table snapshot.
	if err := n.setupRouteIntel(cfg); err != nil {
		return nil, err
	}

	n.inj, n.manual = n.southbound(cfg)
	n.ctrlDelay = cfg.Mitigation.ConfigDelay.Std()
	switch {
	case n.ctrlDelay < 0:
		n.ctrlDelay = 0 // explicit "no controller latency"
	case n.ctrlDelay == 0:
		n.ctrlDelay = controller.DefaultConfigDelay
	}

	if cfg.Record.Path != "" {
		rec, err := eventlog.NewRecorder(eventlog.RecorderConfig{
			Prefix:       cfg.Record.Path,
			MaxFileBytes: cfg.Record.MaxFileSize,
			MaxFileAge:   cfg.Record.MaxFileAge.Std(),
			QueueDepth:   cfg.Record.QueueDepth,
		})
		if err != nil {
			return nil, err
		}
		n.rec = rec
	}

	// One service stack per tenant, all classifying on one shared
	// pipeline under one policy table: the first apply builds them.
	if err := n.applyLocked(cfg); err != nil {
		if n.rec != nil {
			n.rec.Close()
		}
		return nil, err
	}
	n.sup = ingest.New(n.deliver, ingest.Config{
		QueueDepth: cfg.Tuning.SourceQueue,
		DedupTTL:   cfg.Tuning.DedupTTL.Std(),
		OnHealth: func(tr ingest.HealthTransition) {
			h := healthFromIngest(tr)
			n.opts.logf("artemis: source %s: %s -> %s", h.Source, h.From, h.To)
			n.bus.publish(Event{Kind: KindHealth, SourceHealth: &h})
		},
	})
	// Normalize configured sources now (default names, duplicate checks);
	// they start dialing when Run attaches them.
	specs := n.cfg.Sources
	n.cfg.Sources = nil
	for _, spec := range specs {
		if _, err := n.addSourceLocked(spec); err != nil {
			n.shutdown()
			return nil, err
		}
	}
	return n, nil
}

// newTenant builds one tenant's service stack over its lowered config.
func (n *Node) newTenant(name string, ccfg *core.Config, queueDepth int) (*tenantState, error) {
	ctrl := controller.New(n.inj, n.now,
		func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		controller.WithConfigDelay(n.ctrlDelay))
	svc, err := core.NewService(ccfg, ctrl, n.now, core.WithAsyncMitigation(queueDepth))
	if err != nil {
		return nil, err
	}
	svc.Detector.OnAlert(func(a core.Alert) {
		pub := alertFromCore(a)
		pub.Tenant = name
		n.enrichAlert(&pub)
		who := fmt.Sprintf("AS%d", pub.Origin)
		if pub.OriginName != "" {
			who += " (" + pub.OriginName
			if pub.OriginLocale != "" {
				who += ", " + pub.OriginLocale
			}
			who += ")"
		}
		rpkiNote := ""
		if pub.RPKI != "" {
			rpkiNote = ", rpki " + pub.RPKI
		}
		n.opts.logf("artemis: ALERT [%s] %s: %s announced by %s (collides with owned %s, via %s/%s vp AS%d%s)",
			name, pub.Type, pub.Prefix, who, pub.Owned, pub.Source, pub.Collector, pub.VantagePoint, rpkiNote)
		n.bus.publish(Event{Kind: KindAlert, Tenant: name, Alert: &pub})
	})
	svc.Mitigator.OnRecord(func(r core.MitigationRecord) {
		pub := mitigationFromCore(r)
		pub.Alert.Tenant = name
		n.bus.publish(Event{Kind: KindMitigation, Tenant: name, Mitigation: &pub})
	})
	svc.OnMitigationDrop(func(core.Alert) {
		n.bus.publish(Event{Kind: KindLimit, Tenant: name,
			Limit: &LimitEvent{Tenant: name, Limit: "mitigation-rate", Count: 1}})
	})
	return &tenantState{name: name, svc: svc, ctrl: ctrl}, nil
}

// publishQuotaDrop surfaces a batch's per-tenant classification-quota
// drops as a KindLimit event (the drops are already counted in the
// tenant's runtime). Runs on the pipeline's sink goroutine.
func (n *Node) publishQuotaDrop(tenant string, dropped int64) {
	n.bus.publish(Event{Kind: KindLimit, Tenant: tenant,
		Limit: &LimitEvent{Tenant: tenant, Limit: "classification-quota", Count: dropped}})
}

// southbound resolves the mitigation injector: explicit option, REST
// controller URL, or detection-only (manual).
func (n *Node) southbound(cfg *Config) (controller.RouteInjector, bool) {
	manual := cfg.Mitigation.Manual
	switch {
	case n.opts.inject != nil:
		return injectorAdapter{n.opts.inject}, manual
	case cfg.Mitigation.Controller != "":
		return controller.NewRESTClient(cfg.Mitigation.Controller), manual
	default:
		return noopInjector{}, true
	}
}

// scopes lists the config's tenant scopes in policy-table order: the
// implicit default tenant (top-level prefixes) first when present, then
// Tenants in declaration order.
func (c *Config) scopes() []TenantSpec {
	out := make([]TenantSpec, 0, 1+len(c.Tenants))
	if len(c.Prefixes) > 0 {
		out = append(out, TenantSpec{
			Name: DefaultTenant, Prefixes: c.Prefixes, Origins: c.Origins, Upstreams: c.Upstreams,
		})
	}
	return append(out, c.Tenants...)
}

// scope returns the named tenant scope.
func (c *Config) scope(name string) (TenantSpec, bool) {
	for _, sc := range c.scopes() {
		if sc.Name == name {
			return sc, true
		}
	}
	return TenantSpec{}, false
}

// mutateScope applies mutate to the named scope inside cfg, writing the
// default tenant's fields back to the top level.
func mutateScope(cfg *Config, tenant string, mutate func(*TenantSpec) error) error {
	if tenant == DefaultTenant {
		if len(cfg.Prefixes) == 0 {
			return fmt.Errorf("artemis: unknown tenant %q", tenant)
		}
		sc := TenantSpec{Name: DefaultTenant, Prefixes: cfg.Prefixes, Origins: cfg.Origins, Upstreams: cfg.Upstreams}
		if err := mutate(&sc); err != nil {
			return err
		}
		cfg.Prefixes, cfg.Origins, cfg.Upstreams = sc.Prefixes, sc.Origins, sc.Upstreams
		return nil
	}
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Name == tenant {
			return mutate(&cfg.Tenants[i])
		}
	}
	return fmt.Errorf("artemis: unknown tenant %q", tenant)
}

// lower lowers one tenant scope plus the shared tuning to the core's
// typed config, with the node's fixed mitigation wiring and its current
// ROA table.
func (n *Node) lower(sc TenantSpec, cfg *Config) (*core.Config, error) {
	ccfg := &core.Config{
		MaxDeaggregationLen:  cfg.Mitigation.MaxDeaggLen,
		MaxDeaggregationLen6: cfg.Mitigation.MaxDeaggLen6,
		ManualMitigation:     n.manual,
		AlertDedupTTL:        cfg.Tuning.AlertTTL.Std(),
		AlertDedupMax:        cfg.Tuning.AlertDedupMax,
		MaxMitigationRetries: cfg.Tuning.MaxMitigationRetries,
		MaxEventsPerSecond:   sc.Limits.MaxEventsPerSec,
		RPKI:                 n.roas.Load(),
		MitigationRatePerMin: sc.Limits.MitigationRatePerMin,
	}
	switch {
	case ccfg.AlertDedupTTL < 0:
		ccfg.AlertDedupTTL = 0 // explicit "dedup forever" (core's 0)
	case ccfg.AlertDedupTTL == 0:
		ccfg.AlertDedupTTL = 24 * time.Hour // unset → daemon default
	}
	if ccfg.AlertDedupMax == 0 {
		ccfg.AlertDedupMax = 1 << 16
	}
	for _, s := range sc.Prefixes {
		p, err := prefix.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("artemis: bad prefix %q: %v", s, err)
		}
		ccfg.OwnedPrefixes = append(ccfg.OwnedPrefixes, p)
	}
	for _, o := range sc.Origins {
		ccfg.LegitOrigins = append(ccfg.LegitOrigins, bgp.ASN(o))
	}
	if len(sc.Upstreams) > 0 {
		ccfg.AllowedUpstreams = make(map[bgp.ASN][]bgp.ASN, len(sc.Upstreams))
		for origin, ups := range sc.Upstreams {
			list := make([]bgp.ASN, len(ups))
			for i, u := range ups {
				list[i] = bgp.ASN(u)
			}
			ccfg.AllowedUpstreams[bgp.ASN(origin)] = list
		}
	}
	return ccfg, nil
}

// filterProvider returns the live subscription filter: the union of
// every tenant's owned space, both directions. Dialers resolve it per
// (re)dial, the periscope poller per round.
func (n *Node) filterProvider() feedtypes.Filter {
	pfx, _ := n.union.Load().([]prefix.Prefix)
	return feedtypes.Filter{
		Prefixes:     pfx,
		MoreSpecific: true,
		LessSpecific: true,
	}
}

// deliver is the ingest supervisor's sink: every post-dedup batch
// enters the detection pipeline and, when enabled, the archive
// recorder and the event firehose. Both taps stay off the hot path
// when unused — with no recorder configured and no stream subscribers
// this is exactly n.pl.Submit, and the recorder itself copies into
// pooled storage without blocking on I/O.
func (n *Node) deliver(evs []feedtypes.Event) {
	n.pl.Submit(evs)
	if n.rib != nil {
		// Fold the batch into the route table (its own lock; paths are
		// deep-copied there because batch storage is pooled).
		n.rib.Apply(evs)
	}
	if n.rec != nil {
		n.rec.Record(evs)
	}
	if n.feedTaps.Load() > 0 {
		n.fanOutEvents(evs)
	}
}

// EventStreamSub is one bounded tap on the node's post-dedup feed
// event stream (the raw observations, before classification) — the
// mechanism behind GET /v1/events/stream. Slow consumers shed: when
// the buffer is full events are dropped and counted, never allowed to
// backpressure ingest.
type EventStreamSub struct {
	n       *Node
	scope   feedtypes.Filter
	scoped  bool
	ch      chan feedtypes.Event
	dropped atomic.Int64
	once    sync.Once
}

// Events is the subscription channel. It closes when the subscriber
// calls Close or the node drains. Path slices are owned by the
// receiver.
func (s *EventStreamSub) Events() <-chan feedtypes.Event { return s.ch }

// Dropped reports how many events were shed because the subscriber
// fell behind.
func (s *EventStreamSub) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel.
func (s *EventStreamSub) Close() {
	s.n.feedMu.Lock()
	if _, ok := s.n.feedSubs[s]; ok {
		delete(s.n.feedSubs, s)
		s.n.feedTaps.Add(-1)
	}
	s.once.Do(func() { close(s.ch) })
	s.n.feedMu.Unlock()
}

// SubscribeEvents taps the post-dedup feed event stream. tenant ""
// (admin scope) sees everything; a tenant name scopes the stream to
// events matching that tenant's owned space at subscribe time, both
// directions — the same routing rule classification uses. buffer <= 0
// selects 256; a tenant's Limits.StreamBuffer caps it.
func (n *Node) SubscribeEvents(tenant string, buffer int) (*EventStreamSub, error) {
	if buffer <= 0 {
		buffer = 256
	}
	s := &EventStreamSub{n: n}
	if tenant != "" {
		n.mu.Lock()
		sc, found := n.cfg.scope(tenant)
		n.mu.Unlock()
		if !found {
			return nil, fmt.Errorf("artemis: unknown tenant %q", tenant)
		}
		if sc.Limits.StreamBuffer > 0 && buffer > sc.Limits.StreamBuffer {
			buffer = sc.Limits.StreamBuffer
		}
		pfx := make([]prefix.Prefix, 0, len(sc.Prefixes))
		for _, str := range sc.Prefixes {
			p, err := prefix.Parse(str)
			if err != nil {
				return nil, fmt.Errorf("artemis: bad prefix %q: %v", str, err)
			}
			pfx = append(pfx, p)
		}
		s.scoped = true
		s.scope = feedtypes.Filter{Prefixes: pfx, MoreSpecific: true, LessSpecific: true}
	}
	s.ch = make(chan feedtypes.Event, buffer)
	n.feedMu.Lock()
	if n.feedClosed {
		s.once.Do(func() { close(s.ch) })
	} else {
		n.feedSubs[s] = struct{}{}
		n.feedTaps.Add(1)
	}
	n.feedMu.Unlock()
	return s, nil
}

// fanOutEvents copies the batch to every stream subscriber whose scope
// matches. Path slices are copied once per event (not per subscriber)
// because the batch storage is recycled after deliver returns;
// subscribers may hold events indefinitely.
func (n *Node) fanOutEvents(evs []feedtypes.Event) {
	n.feedMu.Lock()
	defer n.feedMu.Unlock()
	if len(n.feedSubs) == 0 {
		return
	}
	for _, ev := range evs {
		copied := false
		for s := range n.feedSubs {
			if s.scoped && !s.scope.Match(ev.Prefix) {
				continue
			}
			if !copied && len(ev.Path) != 0 {
				ev.Path = append([]bgp.ASN(nil), ev.Path...)
				copied = true
			}
			select {
			case s.ch <- ev:
			default:
				s.dropped.Add(1)
			}
		}
	}
}

// closeEventStreams ends every firehose subscription at drain.
func (n *Node) closeEventStreams() {
	n.feedMu.Lock()
	n.feedClosed = true
	for s := range n.feedSubs {
		delete(n.feedSubs, s)
		n.feedTaps.Add(-1)
		s.once.Do(func() { close(s.ch) })
	}
	n.feedMu.Unlock()
}

// RecordStatus reports the archive recorder's counters, or false when
// recording is not configured.
func (n *Node) RecordStatus() (eventlog.RecorderSnapshot, bool) {
	if n.rec == nil {
		return eventlog.RecorderSnapshot{}, false
	}
	return n.rec.Snapshot(), true
}

// Run starts the configured monitoring sources and blocks until ctx is
// cancelled or Drain is called, then shuts down gracefully in dependency
// order: sources stop (no new batches), the pipeline flushes and closes
// (classification and alert commit complete), the mitigation queues drain
// (every accepted alert handled), and event subscriptions close. Run may
// be called at most once; the node cannot be restarted after it returns.
func (n *Node) Run(ctx context.Context) error {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return fmt.Errorf("artemis: Run called twice")
	}
	n.running = true
	err := n.attachDeferredLocked()
	rpkiURL, rpkiRefresh := n.cfg.RPKI.URL, n.cfg.RPKI.Refresh.Std()
	n.mu.Unlock()
	defer close(n.runExited)
	if err != nil {
		n.shutdown()
		return err
	}
	if rpkiURL != "" && rpkiRefresh > 0 {
		go n.refreshRPKILoop(ctx, rpkiURL, rpkiRefresh)
	}
	select {
	case <-ctx.Done():
	case <-n.drained:
	}
	n.shutdown()
	return nil
}

// attachDeferredLocked dials every source registered before Run.
func (n *Node) attachDeferredLocked() error {
	for _, spec := range n.cfg.Sources {
		e := n.sources[spec.Name]
		if e.id >= 0 {
			continue
		}
		dialer, opts, err := n.dialerFor(spec)
		if err != nil {
			return err
		}
		id := n.sup.AddDialer(spec.Name, dialer, opts...)
		if id < 0 {
			return fmt.Errorf("artemis: node already drained")
		}
		e.id = id
		n.sources[spec.Name] = e
	}
	return nil
}

// Drain triggers the same graceful shutdown Run performs on context
// cancellation and waits for it to complete. Safe to call concurrently
// and more than once; also usable on a node that was never Run (it then
// releases the assembled goroutines).
func (n *Node) Drain() {
	n.drainOnce.Do(func() { close(n.drained) })
	n.mu.Lock()
	ran := n.running
	n.mu.Unlock()
	if ran {
		<-n.runExited
		return
	}
	n.shutdown()
}

func (n *Node) shutdown() {
	n.opts.logf("artemis: draining (sources -> pipeline -> mitigation queues)")
	n.sup.Close()
	n.pl.Flush()
	n.pl.Close()
	if n.rec != nil {
		n.rec.Close() // queue drains; final segment flushes
	}
	n.closeEventStreams()
	n.mu.Lock()
	tenants := make([]*tenantState, 0, len(n.tenants))
	for _, ts := range n.tenants {
		tenants = append(tenants, ts)
	}
	n.mu.Unlock()
	for _, ts := range tenants {
		ts.svc.Close()
	}
	n.bus.close()
}

// --- live reconfiguration ---

// AddPrefixes hot-adds owned prefixes (canonical or parseable text form)
// to the default tenant. The detector, pipeline routing, monitor probes,
// mitigation clamps and ingest filters all swap at one pipeline barrier;
// server-side-filtered sources are bounced so their subscriptions cover
// the new space. No-op prefixes (already owned) are rejected.
func (n *Node) AddPrefixes(prefixes ...string) error {
	return n.AddTenantPrefixes(DefaultTenant, prefixes...)
}

// AddTenantPrefixes is AddPrefixes scoped to one tenant.
func (n *Node) AddTenantPrefixes(tenant string, prefixes ...string) error {
	return n.updateScope(tenant, func(sc *TenantSpec) error {
		for _, s := range prefixes {
			p, err := prefix.Parse(s)
			if err != nil {
				return fmt.Errorf("artemis: bad prefix %q: %v", s, err)
			}
			for _, have := range sc.Prefixes {
				if q, _ := prefix.Parse(have); q == p {
					return fmt.Errorf("artemis: prefix %q already owned", s)
				}
			}
			sc.Prefixes = append(sc.Prefixes, p.String())
		}
		return nil
	})
}

// RemovePrefixes hot-removes owned prefixes from the default tenant.
// Incidents already raised for them keep their history; new announcements
// of the removed space stop alerting.
func (n *Node) RemovePrefixes(prefixes ...string) error {
	return n.RemoveTenantPrefixes(DefaultTenant, prefixes...)
}

// RemoveTenantPrefixes is RemovePrefixes scoped to one tenant.
func (n *Node) RemoveTenantPrefixes(tenant string, prefixes ...string) error {
	return n.updateScope(tenant, func(sc *TenantSpec) error {
		for _, s := range prefixes {
			p, err := prefix.Parse(s)
			if err != nil {
				return fmt.Errorf("artemis: bad prefix %q: %v", s, err)
			}
			found := -1
			for i, have := range sc.Prefixes {
				if q, _ := prefix.Parse(have); q == p {
					found = i
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("artemis: prefix %q not owned", s)
			}
			sc.Prefixes = append(sc.Prefixes[:found], sc.Prefixes[found+1:]...)
		}
		return nil
	})
}

// SetOrigins replaces the default tenant's legitimate-origin set.
func (n *Node) SetOrigins(origins ...uint32) error {
	return n.SetTenantOrigins(DefaultTenant, origins...)
}

// SetTenantOrigins replaces one tenant's legitimate-origin set.
func (n *Node) SetTenantOrigins(tenant string, origins ...uint32) error {
	return n.updateScope(tenant, func(sc *TenantSpec) error {
		if len(origins) == 0 {
			return fmt.Errorf("artemis: at least one origin required")
		}
		sc.Origins = append([]uint32(nil), origins...)
		return nil
	})
}

// Upstreams returns a tenant's path-anomaly neighbor policy (origin →
// allowed adjacent ASes), nil when the tenant has none.
func (n *Node) Upstreams(tenant string) (map[uint32][]uint32, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sc, ok := n.cfg.scope(tenant)
	if !ok {
		return nil, fmt.Errorf("artemis: unknown tenant %q", tenant)
	}
	return cloneUpstreams(sc.Upstreams), nil
}

// SetUpstreams replaces a tenant's path-anomaly neighbor policy and
// swaps it live; nil/empty disables path-anomaly detection for the
// tenant. Persists like every other mutation.
func (n *Node) SetUpstreams(tenant string, upstreams map[uint32][]uint32) error {
	return n.updateScope(tenant, func(sc *TenantSpec) error {
		if len(upstreams) == 0 {
			sc.Upstreams = nil
			return nil
		}
		sc.Upstreams = cloneUpstreams(upstreams)
		return nil
	})
}

// SetTenantLimits replaces a tenant's isolation limits live. The default
// tenant (the operator's own prefixes) has no limits.
func (n *Node) SetTenantLimits(tenant string, limits TenantLimits) error {
	if tenant == DefaultTenant {
		return fmt.Errorf("artemis: the default tenant has no limits")
	}
	return n.updateScope(tenant, func(sc *TenantSpec) error {
		sc.Limits = limits
		return nil
	})
}

// updateScope is update confined to one tenant's scope.
func (n *Node) updateScope(tenant string, mutate func(*TenantSpec) error) error {
	err := n.update(func(cfg *Config) error { return mutateScope(cfg, tenant, mutate) })
	if err == nil {
		n.opts.logf("artemis: reconfigured tenant %s", tenant)
	}
	return err
}

// update is every live configuration change: mutate edits a clone of
// the declarative config, which is validated, applied in one step by
// applyLocked and persisted. Sources are re-diffed only when the edit
// changed them.
func (n *Node) update(mutate func(*Config) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := n.cfg.Clone()
	if err := mutate(next); err != nil {
		return err
	}
	if err := next.Validate(); err != nil {
		return err
	}
	sourcesChanged := !slices.EqualFunc(next.Sources, n.cfg.Sources, sourceSpecEqual)
	if err := n.applyLocked(next); err != nil {
		return err
	}
	if sourcesChanged {
		if err := n.replaceSourcesLocked(next.Sources); err != nil {
			return err
		}
	}
	n.persistLocked()
	return nil
}

// applyLocked makes the validated config next the node's configuration.
// It lowers every tenant scope, then builds the whole next policy table
// (which validates every tenant) over the retained stacks and fresh ones
// for new tenants; a failure in either step closes the fresh stacks and
// returns with nothing applied. Otherwise it installs the table with one
// pipeline barrier, whose onApply swaps every retained tenant whose
// lowered config changed, so each event is classified wholly under the
// old configuration or wholly under the new one. Unchanged tenants keep
// their snapshot (no monitor re-index); removed tenants drain after the
// barrier; sources are bounced only when the owned-prefix union changed.
// The first call, from New, creates the pipeline instead.
func (n *Node) applyLocked(next *Config) error {
	scopes := next.scopes()
	policies := make([]core.TenantPolicy, len(scopes))
	for i, sc := range scopes {
		ccfg, err := n.lower(sc, next)
		if err != nil {
			return err
		}
		policies[i] = core.TenantPolicy{Name: sc.Name, Config: ccfg}
	}
	tenants := make(map[string]*tenantState, len(scopes))
	order := make([]string, len(scopes))
	var added []*tenantState
	var swapped []int // retained tenants whose config changes, by index
	closeAdded := func() {
		for _, ts := range added {
			ts.svc.Close()
		}
	}
	for i := range policies {
		pol := &policies[i]
		ts, ok := n.tenants[pol.Name]
		if ok {
			cur := ts.svc.CurrentConfig()
			pol.Config.Self = cur.Self
			if sameConfig(pol.Config, cur) {
				pol.Config = cur
			} else {
				swapped = append(swapped, i)
			}
			pol.Runtime = n.table.Runtime(pol.Name)
		} else {
			var err error
			if ts, err = n.newTenant(pol.Name, pol.Config, next.Mitigation.QueueDepth); err != nil {
				closeAdded()
				return err
			}
			added = append(added, ts)
		}
		pol.Detector, pol.Monitor = ts.svc.Detector, ts.svc.Monitor
		tenants[pol.Name] = ts
		order[i] = pol.Name
	}
	table, err := core.NewPolicyTable(policies)
	if err != nil {
		closeAdded()
		return err
	}
	table.OnQuotaDrop(n.publishQuotaDrop)
	if n.pl == nil {
		n.pl = core.NewPipelineTable(table, core.PipelineConfig{})
	} else {
		n.pl.ReconfigureTable(table, func() {
			for _, i := range swapped {
				tenants[order[i]].svc.SwapConfig(policies[i].Config)
			}
		})
	}
	for name, ts := range n.tenants {
		if tenants[name] != ts {
			ts.svc.Close() // past the barrier: no batch routes to it anymore
		}
	}
	old, _ := n.union.Load().([]prefix.Prefix)
	union := table.UnionFilter()
	n.cfg, n.tenants, n.order, n.table = next, tenants, order, table
	n.union.Store(union)
	if !sameSpace(old, union) {
		n.bounceFilteredSourcesLocked()
	}
	return nil
}

// sameConfig reports whether two lowered configs are equal, the shared
// ROA table and self-announcement registry compared by pointer.
func sameConfig(a, b *core.Config) bool {
	x, y := *a, *b
	x.RPKI, x.Self, y.RPKI, y.Self = nil, nil, nil, nil
	return a.RPKI == b.RPKI && a.Self == b.Self && reflect.DeepEqual(x, y)
}

// sameSpace reports whether two prefix lists hold the same set.
func sameSpace(a, b []prefix.Prefix) bool {
	inA, inB := make(map[prefix.Prefix]bool, len(a)), make(map[prefix.Prefix]bool, len(b))
	for _, p := range a {
		inA[p] = true
	}
	for _, p := range b {
		if !inA[p] {
			return false
		}
		inB[p] = true
	}
	return len(inA) == len(inB)
}

// bounceFilteredSourcesLocked redials the sources whose subscription
// filters are bound per connection, so they cover the new owned union.
func (n *Node) bounceFilteredSourcesLocked() {
	for _, e := range n.sources {
		switch e.spec.Type {
		case SourceRIS, SourceBGPmon:
			n.sup.Bounce(e.id)
		}
	}
}

// --- tenant CRUD ---

// AddTenant hot-adds a tenant: its own detector, monitor and mitigation
// stack joins the shared pipeline at one barrier, and the feed union
// widens to cover its prefixes. Persists via the state file.
func (n *Node) AddTenant(spec TenantSpec) error {
	err := n.update(func(cfg *Config) error {
		if err := spec.validate(); err != nil {
			return err
		}
		if _, dup := cfg.scope(spec.Name); dup {
			return fmt.Errorf("artemis: tenant %q already exists", spec.Name)
		}
		cfg.Tenants = append(cfg.Tenants, spec.Clone())
		return nil
	})
	if err == nil {
		n.opts.logf("artemis: tenant %s added (%d prefixes)", spec.Name, len(spec.Prefixes))
	}
	return err
}

// RemoveTenant hot-removes a tenant: the shared table stops routing to
// it at one barrier, then its service stack drains. Its alert history
// is discarded with it. The default tenant cannot be removed this way —
// it is the top-level prefixes; remove those instead.
func (n *Node) RemoveTenant(name string) error {
	if name == DefaultTenant {
		return fmt.Errorf("artemis: tenant %q is the top-level prefixes; remove those instead", name)
	}
	err := n.update(func(cfg *Config) error {
		i := slices.IndexFunc(cfg.Tenants, func(t TenantSpec) bool { return t.Name == name })
		if i < 0 {
			return fmt.Errorf("artemis: unknown tenant %q", name)
		}
		cfg.Tenants = slices.Delete(cfg.Tenants, i, i+1)
		return nil
	})
	if err == nil {
		n.opts.logf("artemis: tenant %s removed", name)
	}
	return err
}

// ReplaceConfig atomically replaces the whole declarative configuration
// except Control: tenant membership and scopes, sources, and the
// hot-tunable bounds (alert dedup TTL/size, mitigation retries,
// per-tenant limits) all swap live at one barrier; construction-time
// fields (mitigation southbound, source queues) are stored and persisted
// but only take effect on restart. A rejected config changes nothing.
// This is POST /v1/config — and, with a state file, how a hosted
// deployment's whole tenant store is replaced and survives restarts.
func (n *Node) ReplaceConfig(next *Config) error {
	next = next.Clone()
	err := n.update(func(cfg *Config) error {
		// The state file and listen address identify THIS node; a config
		// replace must not silently re-point persistence or auth elsewhere.
		next.Control = cfg.Control
		*cfg = *next
		return nil
	})
	if err == nil {
		n.opts.logf("artemis: configuration replaced (%d tenants, %d sources)", len(next.scopes()), len(next.Sources))
	}
	return err
}

// replaceSourcesLocked diffs the supervised sources against specs:
// named sources with an unchanged spec keep their connection, everything
// else is removed and (re-)added.
func (n *Node) replaceSourcesLocked(specs []SourceSpec) error {
	keep := make(map[string]bool, len(specs))
	var toAdd []SourceSpec
	for _, spec := range specs {
		if spec.Name != "" {
			if e, ok := n.sources[spec.Name]; ok && sourceSpecEqual(e.spec, spec) {
				keep[spec.Name] = true
				continue
			}
		}
		toAdd = append(toAdd, spec)
	}
	n.cfg.Sources = nil
	for name, e := range n.sources {
		if keep[name] {
			n.cfg.Sources = append(n.cfg.Sources, e.spec)
			continue
		}
		delete(n.sources, name)
		if e.id >= 0 {
			n.sup.Remove(e.id)
		}
	}
	for _, spec := range toAdd {
		if _, err := n.addSourceLocked(spec); err != nil {
			return err
		}
	}
	return nil
}

// sourceSpecEqual compares whole specs (LGs by value, so nil and empty
// agree), so a field added to SourceSpec is compared without an edit here.
func sourceSpecEqual(a, b SourceSpec) bool {
	lgs := slices.Equal(a.LGs, b.LGs)
	a.LGs, b.LGs = nil, nil
	return lgs && reflect.DeepEqual(a, b)
}

// --- persistence ---

// persistLocked writes the current declarative config to the state file
// (write-to-temp + rename, so a crash never leaves a torn file), when
// one is configured. Persistence failures are logged, not returned: the
// in-memory reconfiguration already succeeded.
func (n *Node) persistLocked() {
	path := n.cfg.Control.StateFile
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(n.cfg, "", "  ")
	if err != nil {
		n.opts.logf("artemis: state persist: %v", err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o600); err != nil {
		n.opts.logf("artemis: state persist: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		n.opts.logf("artemis: state persist: %v", err)
	}
}

// LoadState reads a config persisted by a node with Control.StateFile
// set — the JSON twin of LoadConfig, used by the daemon to prefer the
// durable tenant store over the original config file across restarts.
func LoadState(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := &Config{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return cfg, nil
}

// --- authentication ---

// AuthScope is a resolved control-plane credential.
type AuthScope struct {
	// Admin grants every endpoint across all tenants.
	Admin bool
	// Tenant, when non-empty, restricts the caller to that tenant's
	// resources.
	Tenant string
}

// Allows reports whether the scope may act on the named tenant.
func (s AuthScope) Allows(tenant string) bool {
	return s.Admin || (s.Tenant != "" && s.Tenant == tenant)
}

// Secured reports whether any control-plane token is configured. An
// unsecured node (no admin token, no tenant tokens) serves its API open
// — the single-operator back-compat mode.
func (n *Node) Secured() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.securedLocked()
}

func (n *Node) securedLocked() bool {
	if n.cfg.Control.AdminToken != "" {
		return true
	}
	for i := range n.cfg.Tenants {
		if n.cfg.Tenants[i].Token != "" {
			return true
		}
	}
	return false
}

// Authenticate resolves a bearer token to its scope. On an unsecured
// node every token (including none) resolves to admin. Comparison is
// constant-time per candidate, and every candidate is always examined —
// a miss costs the same as a late hit.
func (n *Node) Authenticate(token string) (AuthScope, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.securedLocked() {
		return AuthScope{Admin: true}, true
	}
	scope, found := AuthScope{}, false
	if a := n.cfg.Control.AdminToken; a != "" && tokenEqual(token, a) {
		scope, found = AuthScope{Admin: true}, true
	}
	for i := range n.cfg.Tenants {
		t := &n.cfg.Tenants[i]
		if t.Token != "" && tokenEqual(token, t.Token) && !found {
			scope, found = AuthScope{Tenant: t.Name}, true
		}
	}
	return scope, found
}

func tokenEqual(a, b string) bool {
	return subtle.ConstantTimeCompare([]byte(a), []byte(b)) == 1
}

// ReportAuthFailure records one rejected control-plane request: counted
// in /metrics (artemis_auth_failures_total) and published as a KindAuth
// event, so failed auth is observable rather than a silent 401. The
// control package calls it; embedders fronting the node with their own
// auth may too.
func (n *Node) ReportAuthFailure(path, tenant, reason string) {
	n.authFailures.Add(1)
	f := AuthFailure{Path: path, Tenant: tenant, Reason: reason}
	n.bus.publish(Event{Kind: KindAuth, Auth: &f})
}

// AuthFailures reports how many control-plane requests were rejected.
func (n *Node) AuthFailures() int64 { return n.authFailures.Load() }

// --- source CRUD ---

// AddSource hot-adds a monitoring source and returns its name. Before
// Run, the source is recorded and dialed once Run starts; during Run it
// starts dialing immediately. Sources are shared across tenants.
func (n *Node) AddSource(spec SourceSpec) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	name, err := n.addSourceLocked(spec)
	if err == nil {
		n.persistLocked()
	}
	return name, err
}

func (n *Node) addSourceLocked(spec SourceSpec) (string, error) {
	if err := spec.validate(); err != nil {
		return "", err
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("%s[%d]", spec.Type, n.srcSeq[spec.Type])
	}
	if _, dup := n.sources[spec.Name]; dup {
		return "", fmt.Errorf("artemis: source %q already exists", spec.Name)
	}
	if !n.running {
		// Deferred: Run attaches it.
		n.srcSeq[spec.Type]++
		n.cfg.Sources = append(n.cfg.Sources, spec)
		n.sources[spec.Name] = sourceEntry{id: -1, spec: spec}
		return spec.Name, nil
	}
	dialer, opts, err := n.dialerFor(spec)
	if err != nil {
		return "", err
	}
	id := n.sup.AddDialer(spec.Name, dialer, opts...)
	if id < 0 {
		return "", fmt.Errorf("artemis: node already drained")
	}
	n.srcSeq[spec.Type]++
	n.cfg.Sources = append(n.cfg.Sources, spec)
	n.sources[spec.Name] = sourceEntry{id: id, spec: spec}
	n.opts.logf("artemis: source %s added (%s)", spec.Name, spec.Type)
	return spec.Name, nil
}

// dialerFor builds the transport dialer for a source spec. Every dialer
// resolves the subscription filter live (dial time or poll time), which
// is what makes prefix hot-adds reach running sources.
func (n *Node) dialerFor(spec SourceSpec) (ingest.Dialer, []ingest.SourceOption, error) {
	dialer, opts, err := n.dialerForType(spec)
	if err != nil {
		return nil, nil, err
	}
	if spec.MaxEventsPerSec > 0 {
		// Applies to every transport: blocking sources are paced,
		// drop-policy sources shed (counted in rate_shed_total).
		opts = append(opts, ingest.RateLimit(spec.MaxEventsPerSec))
	}
	return dialer, opts, nil
}

func (n *Node) dialerForType(spec SourceSpec) (ingest.Dialer, []ingest.SourceOption, error) {
	switch spec.Type {
	case SourceRIS:
		return ingest.RISDialerDynamic(spec.URL, n.filterProvider), nil, nil
	case SourceBGPmon:
		return ingest.BGPmonDialerDynamic(spec.Addr, n.filterProvider), nil, nil
	case SourceMRT:
		path := spec.Path
		open := func() (io.ReadCloser, error) { return os.Open(path) }
		return ingest.MRTReplayDialer(open, path), []ingest.SourceOption{ingest.Blocking()}, nil
	case SourcePeriscope:
		return ingest.PeriscopeDialer(spec.URL, ingest.PeriscopeConfig{
			LGs:          spec.LGs,
			Filter:       n.filterProvider,
			PollInterval: spec.Interval.Std(),
			Now:          n.now,
		}), nil, nil
	case SourceBMP:
		return ingest.BMPDialerConfig(spec.Addr, ingest.BMPConfig{
			Filter: n.filterProvider,
			Now:    n.now,
			OnPeer: func(pe ingest.BMPPeerEvent) {
				if pe.Up {
					n.opts.logf("artemis: bmp %s: peer %s AS%d up", pe.Collector, pe.Addr, pe.AS)
				} else {
					n.opts.logf("artemis: bmp %s: peer %s AS%d down (reason %d)", pe.Collector, pe.Addr, pe.AS, pe.Reason)
				}
			},
		}), nil, nil
	case SourceReplay:
		// Blocking: an archive replay must deliver every event — pacing
		// comes from the recorded timestamps, loss would change history.
		return ingest.EventLogFileDialer(spec.Path, ingest.EventLogReplay{Speed: spec.Speed}),
			[]ingest.SourceOption{ingest.Blocking()}, nil
	}
	return nil, nil, fmt.Errorf("artemis: unknown source type %q", spec.Type)
}

// RemoveSource hot-removes a source by name: its connection closes,
// already-queued batches still drain.
func (n *Node) RemoveSource(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.removeSourceLocked(name); err != nil {
		return err
	}
	n.persistLocked()
	return nil
}

func (n *Node) removeSourceLocked(name string) error {
	e, ok := n.sources[name]
	if !ok {
		return fmt.Errorf("artemis: unknown source %q", name)
	}
	delete(n.sources, name)
	for i := range n.cfg.Sources {
		if n.cfg.Sources[i].Name == name {
			n.cfg.Sources = append(n.cfg.Sources[:i], n.cfg.Sources[i+1:]...)
			break
		}
	}
	if e.id >= 0 {
		n.sup.Remove(e.id)
	}
	n.opts.logf("artemis: source %s removed", name)
	return nil
}

// --- introspection ---

// Config returns a deep copy of the current declarative configuration,
// reflecting all live reconfiguration so far.
func (n *Node) Config() *Config {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Clone()
}

// Subscribe returns a bounded subscription to the node's typed events
// across all tenants. kinds OR together (0 means KindAll); buffer <= 0
// selects 64.
func (n *Node) Subscribe(kinds EventKind, buffer int) *Subscription {
	return n.bus.subscribe(kinds, buffer)
}

// SubscribeTenant returns a bounded subscription scoped to one tenant:
// it delivers that tenant's events plus node-global ones (source
// health). The tenant's Limits.StreamBuffer caps the buffer, bounding
// what one tenant's subscribers can pin in shared memory.
func (n *Node) SubscribeTenant(tenant string, kinds EventKind, buffer int) (*Subscription, error) {
	n.mu.Lock()
	_, known := n.tenants[tenant]
	maxBuf := 0
	if sc, found := n.cfg.scope(tenant); found {
		maxBuf = sc.Limits.StreamBuffer
	}
	n.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("artemis: unknown tenant %q", tenant)
	}
	if buffer <= 0 {
		buffer = 64
	}
	if maxBuf > 0 && buffer > maxBuf {
		buffer = maxBuf
	}
	return n.bus.subscribeTenant(tenant, true, kinds, buffer), nil
}

// TenantNames returns the tenants in policy-table order.
func (n *Node) TenantNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.order...)
}

// TenantStatus summarizes one tenant for operators: its scope plus the
// isolation counters (matched events, quota drops, mitigation-rate
// drops) that show whether its limits are biting.
type TenantStatus struct {
	Name     string   `json:"name"`
	Prefixes []string `json:"prefixes"`
	Origins  []uint32 `json:"origins"`
	// Alerts counts incidents the tenant's policy has raised.
	Alerts int `json:"alerts"`
	// Events counts matched events routed to the tenant; QuotaDrops and
	// MitigationRateDrops count work its limits shed.
	Events              int64        `json:"events"`
	QuotaDrops          int64        `json:"quota_drops"`
	MitigationRateDrops int64        `json:"mitigation_rate_drops"`
	Limits              TenantLimits `json:"limits,omitzero"`
	// HasToken reports whether the tenant has its own bearer token (the
	// token itself is never serialized here).
	HasToken bool `json:"has_token,omitempty"`
}

// Tenants summarizes every tenant, in policy-table order.
func (n *Node) Tenants() []TenantStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]TenantStatus, 0, len(n.order))
	for _, name := range n.order {
		st, _ := n.tenantStatusLocked(name)
		out = append(out, st)
	}
	return out
}

// TenantStatus summarizes one tenant by name.
func (n *Node) TenantStatus(name string) (TenantStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tenantStatusLocked(name)
}

func (n *Node) tenantStatusLocked(name string) (TenantStatus, error) {
	ts, ok := n.tenants[name]
	if !ok {
		return TenantStatus{}, fmt.Errorf("artemis: unknown tenant %q", name)
	}
	sc, _ := n.cfg.scope(name)
	st := TenantStatus{
		Name:                name,
		Prefixes:            append([]string(nil), sc.Prefixes...),
		Origins:             append([]uint32(nil), sc.Origins...),
		Alerts:              ts.svc.Detector.AlertCount(),
		MitigationRateDrops: ts.svc.MitigationRateDrops(),
		Limits:              sc.Limits,
		HasToken:            sc.Token != "",
	}
	if rt := n.table.Runtime(name); rt != nil {
		st.Events = rt.Events()
		st.QuotaDrops = rt.QuotaDrops()
	}
	return st, nil
}

// Alerts returns every alert raised so far across all tenants, grouped
// by tenant in policy-table order (oldest first within a tenant).
func (n *Node) Alerts() []Alert {
	var out []Alert
	n.EachAlert("", func(a Alert) { out = append(out, a) })
	return out
}

// TenantAlerts returns one tenant's alerts, oldest first.
func (n *Node) TenantAlerts(tenant string) ([]Alert, error) {
	out := []Alert{}
	if err := n.EachAlert(tenant, func(a Alert) { out = append(out, a) }); err != nil {
		return nil, err
	}
	return out, nil
}

// EachAlert calls fn with each alert of one tenant, oldest first, or of
// every tenant in policy-table order when tenant is "". An unknown
// tenant is reported before fn is called. fn runs without the node's or
// the detector's lock, so it may block (the REST server encodes each
// alert straight into the response).
func (n *Node) EachAlert(tenant string, fn func(Alert)) error {
	tenants, err := n.scopeTenants(tenant)
	if err != nil {
		return err
	}
	for _, ts := range tenants {
		ts.svc.Detector.EachAlert(func(a core.Alert) {
			pub := alertFromCore(a)
			pub.Tenant = ts.name
			n.enrichAlert(&pub)
			fn(pub)
		})
	}
	return nil
}

// Mitigations returns every mitigation attempt so far across all
// tenants, grouped by tenant in policy-table order.
func (n *Node) Mitigations() []Mitigation {
	var out []Mitigation
	n.EachMitigation("", func(m Mitigation) { out = append(out, m) })
	return out
}

// TenantMitigations returns one tenant's mitigation attempts, oldest
// first.
func (n *Node) TenantMitigations(tenant string) ([]Mitigation, error) {
	out := []Mitigation{}
	if err := n.EachMitigation(tenant, func(m Mitigation) { out = append(out, m) }); err != nil {
		return nil, err
	}
	return out, nil
}

// EachMitigation is EachAlert for mitigation attempts.
func (n *Node) EachMitigation(tenant string, fn func(Mitigation)) error {
	tenants, err := n.scopeTenants(tenant)
	if err != nil {
		return err
	}
	for _, ts := range tenants {
		ts.svc.Mitigator.EachRecord(func(r core.MitigationRecord) {
			pub := mitigationFromCore(r)
			pub.Alert.Tenant = ts.name
			fn(pub)
		})
	}
	return nil
}

// scopeTenants resolves a tenant parameter: one tenant's stack, or every
// stack in table order for "".
func (n *Node) scopeTenants(tenant string) ([]*tenantState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if tenant == "" {
		return n.orderedTenantsLocked(), nil
	}
	ts, ok := n.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("artemis: unknown tenant %q", tenant)
	}
	return []*tenantState{ts}, nil
}

// orderedTenantsLocked snapshots the tenant stacks in table order.
func (n *Node) orderedTenantsLocked() []*tenantState {
	out := make([]*tenantState, 0, len(n.order))
	for _, name := range n.order {
		out = append(out, n.tenants[name])
	}
	return out
}

// SourceStatus is one supervised source's health and throughput.
type SourceStatus struct {
	Name  string `json:"name"`
	Type  string `json:"type,omitempty"`
	State string `json:"state"`
	// Events/Batches count deliveries into the pipeline after dedup.
	Events  int64 `json:"events"`
	Batches int64 `json:"batches"`
	// DedupHits were suppressed as cross-source duplicates; Drops shed by
	// the source's own queue bound; RateShed shed by the source's
	// configured rate limit; Reconnects counts redials.
	DedupHits  int64 `json:"dedup_hits"`
	Drops      int64 `json:"drops"`
	RateShed   int64 `json:"rate_shed,omitempty"`
	Reconnects int64 `json:"reconnects"`
}

// Health summarizes the node for operators: overall status plus
// per-source detail. Status is "ok" when every source is connecting,
// healthy, or finished (a finite replay ending is its normal
// completion, not an outage), "degraded" when any source is backing
// off, and "critical" when a source is dead.
type Health struct {
	Status  string         `json:"status"`
	Sources []SourceStatus `json:"sources"`
}

// Health reports the current health summary.
func (n *Node) Health() Health {
	n.mu.Lock()
	types := make(map[string]string, len(n.sources))
	for name, e := range n.sources {
		types[name] = e.spec.Type
	}
	n.mu.Unlock()
	h := Health{Status: "ok"}
	for _, src := range n.sup.Snapshot().Sources {
		h.Sources = append(h.Sources, SourceStatus{
			Name:       src.Name,
			Type:       types[src.Name],
			State:      src.State,
			Events:     src.Events,
			Batches:    src.Batches,
			DedupHits:  src.DedupHits,
			Drops:      src.Drops,
			RateShed:   src.RateShed,
			Reconnects: src.Reconnects,
		})
		switch src.State {
		case ingest.StateDegraded.String():
			if h.Status == "ok" {
				h.Status = "degraded"
			}
		case ingest.StateDead.String():
			h.Status = "critical"
		}
	}
	return h
}

// WriteMetrics renders the node's Prometheus-style text metrics — the
// same body GET /metrics serves. Node-wide families keep their
// single-tenant names (per-tenant mitigation queues merge into the one
// unlabeled family); each tenant additionally gets artemis_tenant_*
// counters labeled with its name.
func (n *Node) WriteMetrics(w io.Writer) {
	n.mu.Lock()
	tenants := n.orderedTenantsLocked()
	table := n.table
	n.mu.Unlock()

	n.sup.Snapshot().WriteProm(w)
	n.pl.Snapshot().WriteProm(w)
	if n.rec != nil {
		n.rec.Snapshot().WriteProm(w)
	}
	var mq stats.MitigationQueueSnapshot
	alerts, dedup := 0, 0
	var failures int64
	var legit, hijacked, unknown int
	now := n.now()
	for i, ts := range tenants {
		if i == 0 {
			mq = ts.svc.Mitigation.Snapshot()
		} else {
			mq = mq.Merge(ts.svc.Mitigation.Snapshot())
		}
		alerts += ts.svc.Detector.AlertCount()
		dedup += ts.svc.Detector.DedupSize()
		failures += int64(ts.ctrl.Failures())
		snap := ts.svc.Monitor.Snapshot(now)
		legit += snap.LegitVPs
		hijacked += snap.HijackedVPs
		unknown += snap.UnknownVPs
	}
	mq.WriteProm(w)
	fmt.Fprintf(w, "artemis_alerts_total %d\n", alerts)
	fmt.Fprintf(w, "artemis_alert_dedup_size %d\n", dedup)
	fmt.Fprintf(w, "artemis_controller_failed_actions_total %d\n", failures)
	fmt.Fprintf(w, "artemis_monitor_legit_vps %d\n", legit)
	fmt.Fprintf(w, "artemis_monitor_hijacked_vps %d\n", hijacked)
	fmt.Fprintf(w, "artemis_monitor_unknown_vps %d\n", unknown)
	fmt.Fprintf(w, "artemis_auth_failures_total %d\n", n.authFailures.Load())
	if n.rib != nil {
		n.rib.Snapshot().WriteProm(w)
	}
	if tb := n.roas.Load(); tb != nil {
		nf, valid, invalid := tb.VerdictCounts()
		fmt.Fprintf(w, "artemis_rpki_roas %d\n", tb.Len())
		fmt.Fprintf(w, "artemis_rpki_verdicts_total{verdict=\"valid\"} %d\n", valid)
		fmt.Fprintf(w, "artemis_rpki_verdicts_total{verdict=\"invalid\"} %d\n", invalid)
		fmt.Fprintf(w, "artemis_rpki_verdicts_total{verdict=\"unknown\"} %d\n", nf)
	}
	for _, ts := range tenants {
		tsn := stats.TenantSnapshot{
			Name:                ts.name,
			Alerts:              int64(ts.svc.Detector.AlertCount()),
			MitigationRateDrops: ts.svc.MitigationRateDrops(),
		}
		if rt := table.Runtime(ts.name); rt != nil {
			tsn.Events = rt.Events()
			tsn.QuotaDrops = rt.QuotaDrops()
		}
		tsn.WriteProm(w)
	}
}

// RouteObservation is one observed routing change for Inject — the
// bring-your-own-feed path for embedders whose monitoring infrastructure
// is not one of the built-in transports.
type RouteObservation struct {
	// Source/Collector label the observation's origin (defaults:
	// "embedded"/"embedded").
	Source    string `json:"source,omitempty"`
	Collector string `json:"collector,omitempty"`
	// VantagePoint is the AS whose routing view changed.
	VantagePoint uint32 `json:"vantage_point"`
	// Withdraw marks a route removal; otherwise an announcement.
	Withdraw bool   `json:"withdraw,omitempty"`
	Prefix   string `json:"prefix"`
	// Path is the AS path as seen from the vantage point (first element
	// the vantage point, last the origin). Empty for withdrawals.
	Path []uint32 `json:"path,omitempty"`
}

// Inject feeds observations to the node exactly as a monitoring source's
// post-dedup batch: the detection pipeline, the route table, the archive
// recorder and the event firehose. Only the ingest supervisor is
// bypassed, so there is no cross-source dedup. Observations are stamped
// with the node clock and fan out to every tenant whose space they
// match. Every consumer copies what it keeps, so Inject builds the batch
// in pooled storage and recycles it before returning — a steady inject
// loop performs no per-call allocations (docs/PERFORMANCE.md).
func (n *Node) Inject(obs ...RouteObservation) error {
	batch := n.injectPool.Get()
	defer batch.Release()
	for _, o := range obs {
		p, err := prefix.Parse(o.Prefix)
		if err != nil {
			return fmt.Errorf("artemis: bad prefix %q: %v", o.Prefix, err)
		}
		ev := feedtypes.Event{
			Source:       o.Source,
			Collector:    o.Collector,
			VantagePoint: bgp.ASN(o.VantagePoint),
			Prefix:       p,
			SeenAt:       n.now(),
			EmittedAt:    n.now(),
		}
		if ev.Source == "" {
			ev.Source = "embedded"
		}
		if ev.Collector == "" {
			ev.Collector = "embedded"
		}
		if o.Withdraw {
			ev.Kind = feedtypes.Withdraw
		} else {
			ev.Kind = feedtypes.Announce
			path := batch.NewPath(len(o.Path))
			for j, a := range o.Path {
				path[j] = bgp.ASN(a)
			}
			ev.Path = path
		}
		batch.Append(ev)
	}
	n.deliver(batch.Events)
	return nil
}

// injectorAdapter lowers the public string-typed RouteInjector to the
// controller's typed southbound.
type injectorAdapter struct{ inj RouteInjector }

func (a injectorAdapter) AnnounceRoute(p prefix.Prefix) error { return a.inj.AnnounceRoute(p.String()) }
func (a injectorAdapter) WithdrawRoute(p prefix.Prefix) error { return a.inj.WithdrawRoute(p.String()) }

// noopInjector is the detection-only southbound.
type noopInjector struct{}

func (noopInjector) AnnounceRoute(prefix.Prefix) error { return nil }
func (noopInjector) WithdrawRoute(prefix.Prefix) error { return nil }
