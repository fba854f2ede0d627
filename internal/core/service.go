package core

import (
	"sync/atomic"
	"time"

	"artemis/internal/controller"
	"artemis/internal/prefix"
	"artemis/internal/stats"
)

// Service is the assembled ARTEMIS instance: detection, mitigation and
// monitoring wired together per Fig. 1 of the paper. Alerts flow from the
// detector to the Mitigator, inline by default (the virtual-time
// experiments' semantics) or through a host's MitigationQueue, so a slow
// controller southbound never stalls whichever goroutine commits alerts
// (the pipeline's sink in daemon mode).
type Service struct {
	Detector  *Detector
	Mitigator *Mitigator
	Monitor   *Monitor

	// queue, when set, is the host's mitigation queue shared by its
	// services; nil runs mitigation inline.
	queue *MitigationQueue
	// closed stops the service handing alerts to mitigation.
	closed atomic.Bool

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

// Southbound is the controller a service mitigates through: Request asks
// for one route change, and done later receives its outcome. Passing the
// completion with each request lets one southbound serve many services,
// each learning only of its own announcements. *controller.Controller
// (the experiments') and *controller.Lane (a live node's) implement it.
type Southbound interface {
	Request(kind controller.ActionKind, p prefix.Prefix, done func(controller.Action))
}

// ServiceOption configures NewService.
type ServiceOption func(*Service)

// WithMitigationQueue hands the service's alerts to q, a live host's one
// mitigation worker, instead of mitigating inline on the alert-committing
// goroutine. Virtual-time experiments must not use it.
func WithMitigationQueue(q *MitigationQueue) ServiceOption {
	return func(s *Service) { s.queue = q }
}

// NewService validates the configuration and assembles the services.
// now supplies timestamps (the simulation engine's clock, or a wall-clock
// adapter in live mode).
func NewService(cfg *Config, sb Southbound, now func() time.Duration, opts ...ServiceOption) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Self == nil {
		// The self-announcement registry ties mitigation to detection: the
		// mitigator registers its de-aggregations here so the detector does
		// not flag them as sub-prefix hijacks when the feeds echo them back.
		cfg.Self = NewSelfAnnounced()
	}
	incidents := newIncidents(cfg)
	s := &Service{
		Detector: newDetector(cfg, incidents),
		Monitor:  NewMonitor(cfg),
		now:      now,
	}
	for _, opt := range opts {
		opt(s)
	}
	var ann RouteAnnouncer
	if sb != nil {
		ann = announcer{sb, s.announced}
	}
	s.Mitigator = newMitigator(cfg, ann, now, incidents)
	s.cur.Store(cfg)
	if !cfg.ManualMitigation {
		s.Detector.OnAlert(func(a Alert) {
			if !s.allowMitigation() {
				s.mitRateDrops.Inc()
				if fn := s.onMitigationDrop.Load(); fn != nil {
					(*fn)(a)
				}
				return
			}
			s.mitigate(a)
		})
	}
	return s, nil
}

// announcer is the Mitigator's view of a southbound: each announcement
// carries the service's completion.
type announcer struct {
	sb   Southbound
	done func(controller.Action)
}

func (a announcer) Announce(p prefix.Prefix) error {
	a.sb.Request(controller.ActionAnnounce, p, a.done)
	return nil
}

// announced is the completion of the service's announcements. The
// southbound is asynchronous: Announce returns before the injector runs,
// so mitigation failures only surface here. A failure marks the incidents
// relying on the announcement failed and releases them, then re-queues
// them: the detector's dedup never re-delivers an alert for an incident
// it has seen, so without this loop a transient southbound outage would
// leave the hijack unmitigated forever. Retries are bounded per incident
// by the active snapshot's MaxMitigationRetries, read on every failure,
// so retuning it applies to incidents already in the loop; each cycle is
// naturally paced by the controller's config delay. Retries bypass the
// mitigation rate limit: the incident was already admitted once.
func (s *Service) announced(a controller.Action) {
	if a.Err == nil {
		return
	}
	for _, alert := range s.Mitigator.NoteAnnounceFailure(a.Prefix, a.Err) {
		s.mitigate(alert)
	}
}

// mitigate hands one alert to mitigation, unless the service is closed.
func (s *Service) mitigate(a Alert) {
	switch {
	case s.closed.Load():
	case s.queue != nil:
		s.queue.Enqueue(s.Mitigator, a)
	default:
		s.Mitigator.HandleAlert(a)
	}
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

// Close stops the service's mitigation: alerts and retries raised after
// it are not handed on. Alerts already in a host's queue are still
// handled; the host drains the queue. Safe to call more than once.
func (s *Service) Close() {
	s.closed.Store(true)
}
