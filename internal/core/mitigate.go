package core

import (
	"sync/atomic"
	"time"

	"artemis/internal/prefix"
)

// MitigationRecord documents one mitigation action, successful or not.
type MitigationRecord struct {
	Alert Alert
	// Prefixes are the de-aggregated announcements requested.
	Prefixes []prefix.Prefix
	// Announced are the prefixes the controller accepted; on success it
	// equals Prefixes, on a mid-loop failure it is the partial set already
	// requested (those announcements are in flight and tracked here even
	// though the incident as a whole failed).
	Announced []prefix.Prefix
	// TriggeredAt is when the mitigator asked the controller.
	TriggeredAt time.Duration
	// Competitive marks mitigations that cannot strictly win LPM (the
	// attacked prefix is already at the de-aggregation limit, e.g. a /24):
	// ARTEMIS re-announces the same prefix and competes on path length —
	// "it might not work for /24 prefixes" (§2).
	Competitive bool
	// Err is the controller failure that aborted the action; nil on
	// success. A failure releases the incident's claim in the incident
	// table, so a retry (the service's, or an operator's) runs mitigation
	// again.
	Err error
}

// Failed reports whether the mitigation aborted on a controller error.
func (r MitigationRecord) Failed() bool { return r.Err != nil }

// RouteAnnouncer is the slice of the controller the mitigator drives.
// A Service adapts its Southbound to it; tests substitute failing stubs.
type RouteAnnouncer interface {
	Announce(p prefix.Prefix) error
}

// Mitigator turns alerts into de-aggregated announcements via the
// controller.
type Mitigator struct {
	// cfg is the active configuration snapshot; reconfiguration swaps it
	// atomically. A pending alert picks up whatever snapshot is active
	// when its mitigation is handled — the same semantics as an operator
	// changing the de-aggregation clamp between two incidents.
	cfg       atomic.Pointer[Config]
	ctrl      RouteAnnouncer
	now       func() time.Duration
	incidents *Incidents
}

// NewMitigator builds the mitigation service. now supplies timestamps
// (engine clock in simulation).
func NewMitigator(cfg *Config, ctrl RouteAnnouncer, now func() time.Duration) *Mitigator {
	return newMitigator(cfg, ctrl, now, newIncidents(cfg))
}

func newMitigator(cfg *Config, ctrl RouteAnnouncer, now func() time.Duration, incidents *Incidents) *Mitigator {
	m := &Mitigator{ctrl: ctrl, now: now, incidents: incidents}
	m.cfg.Store(cfg)
	return m
}

// setConfig installs a new configuration snapshot. In-flight incidents
// keep their claims, requested prefixes and retry counts.
func (m *Mitigator) setConfig(next *Config) { m.cfg.Store(next) }

// OnRecord registers a callback invoked after each mitigation attempt
// completes (successfully or not), and again when an announcement the
// controller had accepted later fails downstream. The record passed is a
// snapshot; callbacks run on the goroutine that handled the alert (or the
// controller's result callback) and must not block.
func (m *Mitigator) OnRecord(fn func(MitigationRecord)) {
	m.incidents.mu.Lock()
	m.incidents.onRecord = append(m.incidents.onRecord, fn)
	m.incidents.mu.Unlock()
}

// MitigationPrefixes computes the response to an alert: the sub-prefixes
// to announce. For a hijack of prefix P the response covers P with
// announcements one bit more specific (so LPM strictly prefers them),
// clamped at the filtering limit; at the limit, the same prefix is
// re-announced competitively. For squatting (a covering super-prefix),
// the owned prefix itself is (re-)announced: it is already more specific
// than the attacker's.
func (m *Mitigator) MitigationPrefixes(a Alert) (prefixes []prefix.Prefix, competitive bool) {
	scope := a.Prefix
	if a.Type == AlertSquat {
		scope = a.Owned
	}
	maxLen := m.cfg.Load().maxLenFor(scope)
	target := scope.Bits() + 1
	if a.Type == AlertSquat {
		// The owned prefix already beats the squatter's covering prefix.
		return []prefix.Prefix{scope}, false
	}
	if target > maxLen {
		// Cannot out-specific the attacker: compete with the same prefix.
		return []prefix.Prefix{scope}, true
	}
	subs, err := scope.Deaggregate(target)
	if err != nil {
		// Unreachable for target = bits+1; fall back to competition.
		return []prefix.Prefix{scope}, true
	}
	return subs, false
}

// HandleAlert runs mitigation for one alert (idempotent per incident).
// It is the handler wired to the detector when AutoMitigate is on, and
// the entry point an operator UI would call in manual mode. A controller
// failure is recorded (with the partial set of announcements already in
// flight) and the incident is released for retry instead of being
// silently marked done.
func (m *Mitigator) HandleAlert(a Alert) {
	prefixes, competitive := m.MitigationPrefixes(a)
	// Claim the incident and log the attempt before touching the
	// controller: a failure callback (NoteAnnounceFailure) can fire on
	// another goroutine as soon as the first Announce is scheduled, and it
	// must find the incident.
	inc, idx, todo := m.incidents.start(MitigationRecord{
		Alert:       a,
		Prefixes:    prefixes,
		Announced:   make([]prefix.Prefix, 0, len(prefixes)),
		TriggeredAt: m.now(),
		Competitive: competitive,
	})
	if inc == nil {
		return // claimed: running or already mitigated
	}
	// Register our own de-aggregations before the controller can route
	// them: every feed echoes announcements back into the detector, and an
	// unregistered more-specific of owned space would raise a sub-prefix
	// alert against our own mitigation.
	if self := m.cfg.Load().Self; self != nil {
		for _, p := range prefixes {
			self.Add(p)
		}
	}
	var err error
	n := 0
	for ; n < len(todo); n++ {
		if err = m.ctrl.Announce(todo[n]); err != nil {
			break
		}
	}
	m.incidents.settle(inc, idx, todo[:n], todo[n:], err)
}

// DefaultMaxMitigationRetries bounds how many times a failed mitigation is
// automatically re-attempted before the incident is left to the operator,
// when Config.MaxMitigationRetries does not say otherwise.
const DefaultMaxMitigationRetries = 5

// NoteAnnounceFailure reports that an announcement the controller had
// accepted failed downstream (the southbound is asynchronous, so
// HandleAlert cannot see this itself — the Service calls it from the
// completion it passes with each request). The announcement of p is one shared route, so
// every incident that relies on it is unmitigated: in first-commit order,
// each one's latest record is marked failed, p is forgotten so a retry
// re-announces it, and its claim is released and its retry count bumped.
// It returns the alerts to retry: those still within the active
// snapshot's MaxMitigationRetries (the detector's dedup never
// re-delivers an alert for the same incident).
func (m *Mitigator) NoteAnnounceFailure(p prefix.Prefix, err error) []Alert {
	max := m.cfg.Load().MaxMitigationRetries
	if max == 0 {
		max = DefaultMaxMitigationRetries
	}
	return m.incidents.announceFailed(p, err, max)
}

// Records returns the mitigations attempted so far, including failed
// ones (Err != nil).
func (m *Mitigator) Records() []MitigationRecord {
	m.incidents.mu.Lock()
	defer m.incidents.mu.Unlock()
	return append([]MitigationRecord(nil), m.incidents.records...)
}

// EachRecord calls fn with each mitigation attempt recorded so far,
// oldest first. Records are updated in place as announcements succeed or
// fail, so each is copied under the lock and fn runs without it.
func (m *Mitigator) EachRecord(fn func(MitigationRecord)) {
	t := m.incidents
	t.mu.Lock()
	n := len(t.records)
	t.mu.Unlock()
	for i := 0; i < n; i++ {
		t.mu.Lock()
		rec := t.records[i]
		t.mu.Unlock()
		fn(rec)
	}
}

// Failures reports how many mitigation attempts aborted on a controller
// error.
func (m *Mitigator) Failures() int64 { return m.incidents.failures.Load() }
