package core

import (
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
	Detector  *Detector
	Mitigator *Mitigator
	Monitor   *Monitor
	// Mitigation is the queue between alert commit and mitigation. It is
	// synchronous by default (the virtual-time experiments' semantics);
	// WithAsyncMitigation turns it into a bounded background worker.
	Mitigation *MitigationQueue

	// cur is the active configuration snapshot; SwapConfig replaces it.
	cur atomic.Pointer[Config]

	// now clocks the mitigation rate limiter (wall clock in daemons, the
	// engine clock in experiments).
	now func() time.Duration
	// mitBucket is the MitigationRatePerMin token bucket.
	mitBucket bucket
	// mitRateDrops counts alerts the rate limit kept out of auto-mitigation.
	mitRateDrops stats.Counter
	// onMitigationDrop, when set, observes each rate-limited alert.
	onMitigationDrop atomic.Pointer[func(Alert)]
}

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
	incidents := newIncidents(cfg)
	s := &Service{
		Detector:  newDetector(cfg, incidents),
		Mitigator: newMitigator(cfg, ctrl, now, incidents),
		Monitor:   NewMonitor(cfg),
		now:       now,
	}
	s.cur.Store(cfg)
	s.Mitigation = NewMitigationQueue(s.Mitigator.HandleAlert, o.queue, s.Mitigator.Failures)
	if !cfg.ManualMitigation {
		s.Detector.OnAlert(func(a Alert) {
			if !s.allowMitigation() {
				s.mitRateDrops.Inc()
				if fn := s.onMitigationDrop.Load(); fn != nil {
					(*fn)(a)
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
		// hijack unmitigated forever. Retries are bounded per incident by
		// the active snapshot's MaxMitigationRetries, read on every
		// failure, so retuning it applies to incidents already in the
		// loop; each cycle is naturally paced by the controller's config
		// delay. Retries bypass the mitigation rate limit: the incident
		// was already admitted once.
		ctrl.OnResult(func(a controller.Action) {
			if a.Err == nil || a.Kind != controller.ActionAnnounce {
				return
			}
			for _, alert := range s.Mitigator.NoteAnnounceFailure(a.Prefix, a.Err) {
				s.Mitigation.Enqueue(alert)
			}
		})
	}
	return s, nil
}

// allowMitigation spends one token from the MitigationRatePerMin bucket
// (burst = one minute's allowance, clocked by s.now). Unlimited when the
// active config does not set a rate.
func (s *Service) allowMitigation() bool {
	perMin := s.CurrentConfig().MitigationRatePerMin
	return perMin <= 0 || s.mitBucket.take(s.now(), perMin, time.Duration.Minutes)
}

// MitigationRateDrops reports how many alerts the MitigationRatePerMin
// limit kept out of auto-mitigation (they remain visible as alerts, and
// the operator can still mitigate manually).
func (s *Service) MitigationRateDrops() int64 { return s.mitRateDrops.Load() }

// OnMitigationDrop registers fn to observe each rate-limited alert.
// Register before events flow; fn runs on the alert-committing goroutine
// and must not block.
func (s *Service) OnMitigationDrop(fn func(Alert)) {
	s.onMitigationDrop.Store(&fn)
}

// CurrentConfig returns the active configuration snapshot. Treat it as
// immutable: derive changes with Clone and install them with SwapConfig
// at the host pipeline's barrier.
func (s *Service) CurrentConfig() *Config { return s.cur.Load() }

// SwapConfig applies a validated snapshot to every subsystem — detector
// classification, monitor probe set and mitigation clamps — with no
// barrier of its own. The host that owns the pipeline runs it from the
// onApply of Pipeline.ReconfigureTable, so the service swaps at that
// table's serial position (a serial trial with no pipeline may call it
// directly). next must carry the service's self-announcement registry.
//
// Hot-tunable alongside the prefix/origin/upstream sets: the
// AlertDedupTTL/AlertDedupMax dedup bounds (the live set is retuned in
// place), MaxMitigationRetries (read on every failure) and the
// MaxEventsPerSecond / MitigationRatePerMin limits. Not hot-swappable:
// the ManualMitigation wiring, fixed at construction.
func (s *Service) SwapConfig(next *Config) {
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
