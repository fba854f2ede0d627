package core

import (
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/controller"
	"artemis/internal/stats"
)

// Service is the assembled ARTEMIS instance: detection, mitigation and
// monitoring wired together per Fig. 1 of the paper. Alerts flow from the
// detector through the MitigationQueue to the Mitigator, so a slow
// controller southbound never stalls whichever goroutine commits alerts
// (the pipeline's sink in daemon mode).
type Service struct {
	// Config is the configuration the service was constructed with. Live
	// reconfiguration installs new snapshots without touching it; use
	// CurrentConfig for the active one.
	Config    *Config
	Detector  *Detector
	Mitigator *Mitigator
	Monitor   *Monitor
	// Mitigation is the queue between alert commit and mitigation. It is
	// synchronous by default (the virtual-time experiments' semantics);
	// WithAsyncMitigation turns it into a bounded background worker.
	Mitigation *MitigationQueue

	// retries counts mitigation re-attempts per incident, bounding the
	// southbound-failure retry loop.
	retryMu sync.Mutex
	retries map[string]int

	// cur is the active configuration snapshot; Reconfigure swaps it.
	cur atomic.Pointer[Config]
	// reconfigMu serializes Reconfigure calls; pl is the bound pipeline
	// whose barrier mechanism gives reconfiguration its serial position
	// (or reconfigureVia, when a host owns a shared multi-tenant pipeline).
	reconfigMu     sync.Mutex
	plMu           sync.Mutex
	pl             *Pipeline
	reconfigureVia func(next *Config, onApply func())

	// now clocks the mitigation rate limiter (wall clock in daemons, the
	// engine clock in experiments).
	now func() time.Duration
	// mitMu guards the MitigationRatePerMin token bucket.
	mitMu     sync.Mutex
	mitTokens float64
	mitLast   time.Duration
	mitSeeded bool
	// mitRateDrops counts alerts the rate limit kept out of auto-mitigation.
	mitRateDrops stats.Counter
	// onMitigationDrop, when set, observes each rate-limited alert.
	onMitigationDrop func(Alert)
}

// DefaultMaxMitigationRetries bounds how many times a failed mitigation is
// automatically re-attempted before the incident is left to the operator,
// when Config.MaxMitigationRetries does not say otherwise.
const DefaultMaxMitigationRetries = 5

// ServiceOption configures NewService.
type ServiceOption func(*serviceOptions)

type serviceOptions struct {
	queue MitigationQueueConfig
}

// WithAsyncMitigation runs alert handling on a bounded background worker
// with the given queue depth (0 → default) instead of inline on the
// alert-committing goroutine. Live daemons want this; virtual-time
// experiments must not use it.
func WithAsyncMitigation(depth int) ServiceOption {
	return func(o *serviceOptions) {
		o.queue = MitigationQueueConfig{Depth: depth, Synchronous: false}
	}
}

// NewService validates the configuration and assembles the services.
// now supplies timestamps (the simulation engine's clock, or a wall-clock
// adapter in live mode).
func NewService(cfg *Config, ctrl *controller.Controller, now func() time.Duration, opts ...ServiceOption) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := serviceOptions{queue: MitigationQueueConfig{Synchronous: true}}
	for _, opt := range opts {
		opt(&o)
	}
	if cfg.Self == nil {
		// The self-announcement registry ties mitigation to detection: the
		// mitigator registers its de-aggregations here so the detector does
		// not flag them as sub-prefix hijacks when the feeds echo them back.
		cfg.Self = NewSelfAnnounced()
	}
	s := &Service{
		Config:    cfg,
		Detector:  NewDetector(cfg),
		Mitigator: NewMitigator(cfg, ctrl, now),
		Monitor:   NewMonitor(cfg),
		retries:   make(map[string]int),
		now:       now,
	}
	s.cur.Store(cfg)
	s.Mitigation = NewMitigationQueue(s.Mitigator.HandleAlert, o.queue, s.Mitigator.Failures)
	if !cfg.ManualMitigation {
		s.Detector.OnAlert(func(a Alert) {
			if !s.allowMitigation() {
				s.mitRateDrops.Inc()
				s.mitMu.Lock()
				fn := s.onMitigationDrop
				s.mitMu.Unlock()
				if fn != nil {
					fn(a)
				}
				return
			}
			s.Mitigation.Enqueue(a)
		})
	}
	if ctrl != nil {
		// The controller's southbound is asynchronous: Announce returns
		// before the injector runs, so mitigation failures only surface
		// through the action results. Feed them back so failed incidents
		// are marked and released, then re-enqueue them: the detector's
		// dedup never re-delivers an alert for an incident it has seen, so
		// without this loop a transient southbound outage would leave the
		// hijack unmitigated forever. Retries are bounded per incident;
		// each cycle is naturally paced by the controller's config delay.
		ctrl.OnResult(func(a controller.Action) {
			if a.Err == nil || a.Kind != controller.ActionAnnounce {
				return
			}
			// The bound is read from the active snapshot on every failure,
			// so retuning Config.MaxMitigationRetries applies to incidents
			// already in the retry loop. Retries bypass the mitigation rate
			// limit: the incident was already admitted once.
			max := s.CurrentConfig().MaxMitigationRetries
			if max == 0 {
				max = DefaultMaxMitigationRetries
			}
			for _, alert := range s.Mitigator.NoteAnnounceFailure(a.Prefix, a.Err) {
				s.retryMu.Lock()
				s.retries[alert.Key()]++
				n := s.retries[alert.Key()]
				s.retryMu.Unlock()
				if n <= max {
					s.Mitigation.Enqueue(alert)
				}
			}
		})
	}
	return s, nil
}

// BindPipeline registers the pipeline the service's feeds flow through.
// Reconfigure then routes config swaps through the pipeline's barrier so
// they land at a well-defined serial position in the event stream. A
// service without a bound pipeline (the serial trial path) reconfigures
// immediately.
func (s *Service) BindPipeline(pl *Pipeline) {
	s.plMu.Lock()
	s.pl = pl
	s.plMu.Unlock()
}

// BindReconfigureVia registers a custom barrier executor: fn must install
// next at a well-defined serial position and run onApply there (the
// multi-tenant host does this by rebuilding the shared policy table and
// calling Pipeline.ReconfigureTable). It takes precedence over a bound
// pipeline.
func (s *Service) BindReconfigureVia(fn func(next *Config, onApply func())) {
	s.plMu.Lock()
	s.reconfigureVia = fn
	s.plMu.Unlock()
}

func (s *Service) boundPipeline() *Pipeline {
	s.plMu.Lock()
	defer s.plMu.Unlock()
	return s.pl
}

// allowMitigation spends one token from the MitigationRatePerMin bucket
// (burst = one minute's allowance, clocked by s.now). Unlimited when the
// active config does not set a rate.
func (s *Service) allowMitigation() bool {
	perMin := s.CurrentConfig().MitigationRatePerMin
	if perMin <= 0 {
		return true
	}
	now := s.now()
	s.mitMu.Lock()
	defer s.mitMu.Unlock()
	if !s.mitSeeded {
		s.mitSeeded = true
		s.mitLast = now
		s.mitTokens = float64(perMin)
	}
	if now > s.mitLast {
		s.mitTokens += (now - s.mitLast).Minutes() * float64(perMin)
		if max := float64(perMin); s.mitTokens > max {
			s.mitTokens = max
		}
		s.mitLast = now
	}
	if s.mitTokens >= 1 {
		s.mitTokens--
		return true
	}
	return false
}

// MitigationRateDrops reports how many alerts the MitigationRatePerMin
// limit kept out of auto-mitigation (they remain visible as alerts, and
// the operator can still mitigate manually).
func (s *Service) MitigationRateDrops() int64 { return s.mitRateDrops.Load() }

// OnMitigationDrop registers fn to observe each rate-limited alert.
// Register before events flow; fn runs on the alert-committing goroutine
// and must not block.
func (s *Service) OnMitigationDrop(fn func(Alert)) {
	s.mitMu.Lock()
	s.onMitigationDrop = fn
	s.mitMu.Unlock()
}

// CurrentConfig returns the active configuration snapshot. Treat it as
// immutable: derive changes with Clone and apply them via Reconfigure.
func (s *Service) CurrentConfig() *Config { return s.cur.Load() }

// Reconfigure validates next and atomically swaps the whole service —
// detector classification, pipeline shard routing, monitor probe set and
// mitigation clamps — to it. With a bound pipeline the swap happens at a
// barrier in the sink's serial order (see Pipeline.Reconfigure for the
// equivalence argument) and Reconfigure returns once it has been applied;
// without one it happens immediately. next is cloned, so the caller may
// keep mutating its copy. Reconfigure must not be called from an alert
// handler or another callback running on the pipeline's sink goroutine.
//
// Hot-tunable alongside the prefix/origin/upstream sets: the
// AlertDedupTTL/AlertDedupMax dedup bounds (the live set is retuned in
// place), MaxMitigationRetries (read on every failure) and the
// MaxEventsPerSecond / MitigationRatePerMin limits. Not hot-swappable:
// the ManualMitigation wiring, fixed at construction.
func (s *Service) Reconfigure(next *Config) error {
	if err := next.Validate(); err != nil {
		return err
	}
	next = next.Clone()
	if next.Self == nil {
		// Carry the self-announcement registry across reconfiguration:
		// mitigations dispatched under the old snapshot stay expected.
		next.Self = s.CurrentConfig().Self
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	s.plMu.Lock()
	via, pl := s.reconfigureVia, s.pl
	s.plMu.Unlock()
	if via != nil {
		via(next, func() { s.swapConfig(next) })
		return nil
	}
	if pl != nil {
		pl.Reconfigure(next, func() { s.swapConfig(next) })
		return nil
	}
	s.swapConfig(next)
	return nil
}

// swapConfig applies a validated snapshot to every subsystem. It runs
// either inline (serial mode) or on the pipeline's sink goroutine (at the
// reconfiguration barrier's sequence position).
func (s *Service) swapConfig(next *Config) {
	s.Detector.setConfig(next)
	s.Monitor.SetConfig(next)
	s.Mitigator.setConfig(next)
	s.cur.Store(next)
}

// Close drains the mitigation queue: every alert already accepted is
// handled before Close returns. Safe to call more than once.
func (s *Service) Close() {
	s.Mitigation.Close()
}
