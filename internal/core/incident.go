package core

import (
	"slices"
	"sync"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/stats"
	"artemis/internal/ttlset"
)

// Incidents is the one table of incident state, under one lock: the
// alert dedup set, the alert log in commit order, the mitigation-attempt
// log in attempt order, and one entry per incident in first-commit order.
// A Service's detector and mitigator share one table; a detector or
// mitigator built on its own gets a table of its own.
type Incidents struct {
	mu sync.Mutex
	// seen deduplicates alerts. With the default config it keeps every
	// incident forever (the experiments' semantics); Config.AlertDedupTTL
	// and AlertDedupMax bound it for long-running daemons, at which point
	// a recurring hijack re-alerts once per TTL window.
	seen     *ttlset.Set[incidentKey]
	alerts   []Alert
	records  []MitigationRecord
	onRecord []func(MitigationRecord)
	byKey    map[incidentKey]*incident
	order    []*incident
	// failures counts failed attempts, each downstream failure of an
	// accepted announcement included.
	failures stats.Counter
}

// incident is one incident's mitigation state.
type incident struct {
	// claimed is set while the incident's mitigation runs or has
	// succeeded; a failure releases it so the incident may be retried.
	claimed bool
	// requested are the prefixes the controller has accepted and that
	// are not known to have failed downstream: a retry after a partial
	// failure announces only what is missing. At most two.
	requested []prefix.Prefix
	// last indexes the incident's latest record.
	last int
	// retries counts the releases after a downstream failure, which the
	// service re-queues while it is within MaxMitigationRetries.
	retries int
}

func newIncidents(cfg *Config) *Incidents {
	return &Incidents{
		seen:  ttlset.New[incidentKey](cfg.AlertDedupTTL, cfg.AlertDedupMax),
		byKey: make(map[incidentKey]*incident),
	}
}

// entryLocked returns the incident's entry, adding it on first sight.
func (t *Incidents) entryLocked(k incidentKey) *incident {
	inc := t.byKey[k]
	if inc == nil {
		inc = &incident{}
		t.byKey[k] = inc
		t.order = append(t.order, inc)
	}
	return inc
}

// commit deduplicates a classified alert and, when it is a fresh
// incident, appends it to the log and reports true.
func (t *Incidents) commit(a *Alert) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.seen.Add(a.incident(), a.DetectedAt) {
		return false
	}
	// Fresh incident (rare): the evidence's Path still aliases the
	// submitting batch's pooled arena, and the alert log outlives it.
	if len(a.Evidence.Path) > 0 {
		a.Evidence.Path = append([]bgp.ASN(nil), a.Evidence.Path...)
	}
	t.alerts = append(t.alerts, *a)
	t.entryLocked(a.incident())
	return true
}

// start claims rec's incident, logs rec as its latest attempt, and
// returns the prefixes it still has to announce, already marked requested
// (failure feedback matches on them). It returns nil when the incident is
// claimed: its mitigation runs or has succeeded.
func (t *Incidents) start(rec MitigationRecord) (inc *incident, idx int, todo []prefix.Prefix) {
	t.mu.Lock()
	defer t.mu.Unlock()
	inc = t.entryLocked(rec.Alert.incident())
	if inc.claimed {
		return nil, 0, nil
	}
	inc.claimed = true
	t.records = append(t.records, rec)
	inc.last = len(t.records) - 1
	for _, p := range rec.Prefixes {
		if !slices.Contains(inc.requested, p) {
			inc.requested = append(inc.requested, p)
			todo = append(todo, p)
		}
	}
	return inc, inc.last, todo
}

// settle records the controller's answer to attempt idx: ok accepted,
// the rest refused with err, which fails the attempt and releases the
// incident. Then the record observers see the attempt.
func (t *Incidents) settle(inc *incident, idx int, ok, refused []prefix.Prefix, err error) {
	t.mu.Lock()
	rec := &t.records[idx]
	rec.Announced = append(rec.Announced, ok...)
	if err != nil {
		t.failures.Inc()
		for _, p := range refused {
			inc.forget(p) // never accepted
		}
		if rec.Err == nil {
			rec.Err = err
		}
		inc.claimed = false
	}
	t.mu.Unlock()
	t.notify(idx)
}

// announceFailed releases every incident relying on the failed
// announcement of p, in first-commit order (see NoteAnnounceFailure), and
// returns the alerts of those still within maxRetries.
func (t *Incidents) announceFailed(p prefix.Prefix, err error, maxRetries int) (retry []Alert) {
	var failed []int
	t.mu.Lock()
	for _, inc := range t.order {
		if !inc.forget(p) {
			continue
		}
		inc.claimed = false
		inc.retries++
		t.failures.Inc()
		rec := &t.records[inc.last]
		if rec.Err == nil {
			rec.Err = err
		}
		failed = append(failed, inc.last)
		if inc.retries <= maxRetries {
			retry = append(retry, rec.Alert)
		}
	}
	t.mu.Unlock()
	for _, idx := range failed {
		t.notify(idx)
	}
	return retry
}

// forget drops p from the requested prefixes, reporting whether it was
// there.
func (inc *incident) forget(p prefix.Prefix) bool {
	i := slices.Index(inc.requested, p)
	if i < 0 {
		return false
	}
	inc.requested = slices.Delete(inc.requested, i, i+1)
	return true
}

// notify snapshots attempt idx and passes it to the record observers.
func (t *Incidents) notify(idx int) {
	t.mu.Lock()
	rec := t.records[idx]
	rec.Prefixes = append([]prefix.Prefix(nil), rec.Prefixes...)
	rec.Announced = append([]prefix.Prefix(nil), rec.Announced...)
	fns := t.onRecord[:len(t.onRecord):len(t.onRecord)]
	t.mu.Unlock()
	for _, fn := range fns {
		fn(rec)
	}
}

// alertLog returns the alert log as it stands. The log is append-only
// and its entries are never rewritten, so the caller may read the
// returned slice without the lock.
func (t *Incidents) alertLog() []Alert {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alerts[:len(t.alerts):len(t.alerts)]
}
