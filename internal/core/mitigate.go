package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/prefix"
	"artemis/internal/stats"
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
	// success. Failed incidents are cleared from the dedup set so a later
	// alert (or an operator retry) runs mitigation again.
	Err error
}

// Failed reports whether the mitigation aborted on a controller error.
func (r MitigationRecord) Failed() bool { return r.Err != nil }

// RouteAnnouncer is the slice of the controller the mitigator drives.
// *controller.Controller implements it; tests substitute failing stubs.
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
	cfg  atomic.Pointer[Config]
	ctrl RouteAnnouncer
	now  func() time.Duration

	mu       sync.Mutex
	records  []MitigationRecord
	onRecord []func(MitigationRecord)
	ledger   map[incidentKey]*incidentState

	failures stats.Counter
}

// incidentState is the mitigator's memory of one incident.
type incidentState struct {
	// claimed is set while the incident's mitigation runs or has
	// succeeded; a failure releases it so the incident may be retried.
	claimed bool
	// requested are the prefixes the controller has accepted and that
	// are not known to have failed downstream. A retry after a partial
	// failure announces only what is missing instead of duplicating
	// announcements already in flight. An attempt asks for at most two.
	requested []prefix.Prefix
	// last indexes the incident's latest record.
	last int
}

// NewMitigator builds the mitigation service. now supplies timestamps
// (engine clock in simulation).
func NewMitigator(cfg *Config, ctrl RouteAnnouncer, now func() time.Duration) *Mitigator {
	m := &Mitigator{ctrl: ctrl, now: now, ledger: make(map[incidentKey]*incidentState)}
	m.cfg.Store(cfg)
	return m
}

// setConfig installs a new configuration snapshot. In-flight incidents
// keep their dedup claims and requested-prefix tracking.
func (m *Mitigator) setConfig(next *Config) { m.cfg.Store(next) }

// OnRecord registers a callback invoked after each mitigation attempt
// completes (successfully or not), and again when an announcement the
// controller had accepted later fails downstream. The record passed is a
// snapshot; callbacks run on the goroutine that handled the alert (or the
// controller's result callback) and must not block.
func (m *Mitigator) OnRecord(fn func(MitigationRecord)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRecord = append(m.onRecord, fn)
}

// notifyRecord snapshots record idx and dispatches the callbacks.
func (m *Mitigator) notifyRecord(idx int) {
	m.mu.Lock()
	rec := m.records[idx]
	rec.Prefixes = append([]prefix.Prefix(nil), rec.Prefixes...)
	rec.Announced = append([]prefix.Prefix(nil), rec.Announced...)
	fns := make([]func(MitigationRecord), len(m.onRecord))
	copy(fns, m.onRecord)
	m.mu.Unlock()
	for _, fn := range fns {
		fn(rec)
	}
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
	m.mu.Lock()
	inc := m.ledger[a.incident()]
	if inc == nil {
		inc = &incidentState{}
		m.ledger[a.incident()] = inc
	}
	if inc.claimed {
		m.mu.Unlock()
		return
	}
	inc.claimed = true // claim the incident so concurrent retries don't race
	m.mu.Unlock()

	prefixes, competitive := m.MitigationPrefixes(a)
	// Register our own de-aggregations before the controller can route
	// them: every feed echoes announcements back into the detector, and an
	// unregistered more-specific of owned space would raise a sub-prefix
	// alert against our own mitigation.
	if self := m.cfg.Load().Self; self != nil {
		for _, p := range prefixes {
			self.Add(p)
		}
	}
	// Register the record before touching the controller: a failure
	// callback (NoteAnnounceFailure) can fire on another goroutine as soon
	// as the first Announce is scheduled, and it must find the incident.
	m.mu.Lock()
	m.records = append(m.records, MitigationRecord{
		Alert:       a,
		Prefixes:    prefixes,
		Announced:   make([]prefix.Prefix, 0, len(prefixes)),
		TriggeredAt: m.now(),
		Competitive: competitive,
	})
	idx := len(m.records) - 1
	inc.last = idx
	inc.requested = slices.Grow(inc.requested, len(prefixes))
	m.mu.Unlock()

	for _, p := range prefixes {
		m.mu.Lock()
		if slices.Contains(inc.requested, p) {
			// A previous (partially failed) attempt already got this one
			// accepted: a retry fills the gaps, it does not duplicate
			// announcements already in flight.
			m.mu.Unlock()
			continue
		}
		inc.requested = append(inc.requested, p) // claim before Announce: failure feedback matches on it
		m.mu.Unlock()
		if err := m.ctrl.Announce(p); err != nil {
			m.mu.Lock()
			inc.forget(p) // never accepted
			if m.records[idx].Err == nil {
				m.records[idx].Err = err
			}
			m.failures.Inc()
			inc.claimed = false // release: the incident may be retried
			m.mu.Unlock()
			m.notifyRecord(idx)
			return
		}
		m.mu.Lock()
		m.records[idx].Announced = append(m.records[idx].Announced, p)
		m.mu.Unlock()
	}
	m.notifyRecord(idx)
}

// forget drops p from the requested prefixes, reporting whether it was
// there.
func (inc *incidentState) forget(p prefix.Prefix) bool {
	i := slices.Index(inc.requested, p)
	if i < 0 {
		return false
	}
	inc.requested = slices.Delete(inc.requested, i, i+1)
	return true
}

// NoteAnnounceFailure reports that an announcement the controller had
// accepted failed downstream (the southbound is asynchronous, so
// HandleAlert cannot see this itself — the Service wires it to
// controller.OnResult). The announcement of p is one shared route, so
// every incident that relies on it is unmitigated: each such incident's
// latest record is marked failed, p is forgotten so a retry re-announces
// it, and the incident's dedup claim is released. It returns the alerts
// of the released incidents so the caller can schedule retries (the
// detector's own dedup never re-delivers an alert for the same incident).
func (m *Mitigator) NoteAnnounceFailure(p prefix.Prefix, err error) []Alert {
	m.mu.Lock()
	var released []Alert
	var failedIdx []int
	for _, inc := range m.ledger {
		if !inc.forget(p) {
			continue
		}
		inc.claimed = false
		m.failures.Inc()
		rec := &m.records[inc.last]
		if rec.Err == nil {
			rec.Err = err
		}
		released = append(released, rec.Alert)
		failedIdx = append(failedIdx, inc.last)
	}
	m.mu.Unlock()
	for _, idx := range failedIdx {
		m.notifyRecord(idx)
	}
	return released
}

// Records returns the mitigations attempted so far, including failed
// ones (Err != nil).
func (m *Mitigator) Records() []MitigationRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MitigationRecord(nil), m.records...)
}

// EachRecord calls fn with each mitigation attempt recorded so far,
// oldest first. Records are updated in place as announcements succeed or
// fail, so each is copied under the lock and fn runs without it.
func (m *Mitigator) EachRecord(fn func(MitigationRecord)) {
	m.mu.Lock()
	n := len(m.records)
	m.mu.Unlock()
	for i := 0; i < n; i++ {
		m.mu.Lock()
		rec := m.records[i]
		m.mu.Unlock()
		fn(rec)
	}
}

// Failures reports how many mitigation attempts aborted on a controller
// error.
func (m *Mitigator) Failures() int64 { return m.failures.Load() }
