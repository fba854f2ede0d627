package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/rpki"
)

// AlertType classifies a detected hijack.
type AlertType uint8

const (
	// AlertExactOrigin: the owned prefix announced with a wrong origin.
	AlertExactOrigin AlertType = iota + 1
	// AlertSubPrefix: a more-specific slice of owned space announced by an
	// illegitimate origin — the most damaging variant (wins LPM).
	AlertSubPrefix
	// AlertSquat: a covering super-prefix announced by an illegitimate
	// origin; it captures traffic wherever the owned route is not known.
	AlertSquat
	// AlertPathAnomaly: origin looks legitimate but the adjacent upstream
	// in the path is not an allowed neighbor (Type-1 hijack).
	AlertPathAnomaly
)

func (t AlertType) String() string {
	switch t {
	case AlertExactOrigin:
		return "exact-origin"
	case AlertSubPrefix:
		return "sub-prefix"
	case AlertSquat:
		return "squat"
	case AlertPathAnomaly:
		return "path-anomaly"
	}
	return fmt.Sprintf("AlertType(%d)", uint8(t))
}

// Alert is one detected hijack incident (deduplicated across feeds and
// vantage points).
type Alert struct {
	Type AlertType
	// Prefix is the offending announcement's prefix.
	Prefix prefix.Prefix
	// Owned is the protected prefix it collides with.
	Owned prefix.Prefix
	// Origin is the illegitimate origin AS (for path anomalies, the AS
	// spliced next to the legitimate origin).
	Origin bgp.ASN
	// RPKI is the origin-validation verdict for the offending announcement
	// ("invalid" or "unknown"), empty when no ROA table is configured or
	// the alert is a path anomaly (whose origin is legitimate — RPKI has
	// nothing to say about the spliced upstream).
	RPKI string
	// Evidence is the first feed event that triggered the alert.
	Evidence feedtypes.Event
	// DetectedAt is when ARTEMIS learned of it — the evidence's emission
	// time (feed latency included).
	DetectedAt time.Duration
}

// incidentKey identifies an incident — (type, prefix, origin) — as a
// comparable struct: zero allocations to construct or look up. The
// incident table (Incidents) keys its dedup set and its per-incident
// entries by it.
type incidentKey struct {
	prefix prefix.Prefix
	origin bgp.ASN
	typ    AlertType
}

func (a *Alert) incident() incidentKey {
	return incidentKey{typ: a.Type, prefix: a.Prefix, origin: a.Origin}
}

// Detector is the detection service: it subscribes to every configured
// source and raises deduplicated alerts.
type Detector struct {
	// cfg is the active configuration. It is an atomic pointer so the
	// serial Process path can be reconfigured at runtime without locking
	// the classification hot path; the pipeline instead stamps each batch
	// with the config it was routed under (see Pipeline.ReconfigureTable
	// for the serial-equivalence argument).
	cfg atomic.Pointer[Config]

	// incidents holds the alert dedup set and the alert log.
	incidents *Incidents

	// mu guards the handlers and the per-source counts.
	mu       sync.Mutex
	handlers []func(Alert)
	// perSource counts matching events per source name (diagnostics and
	// the E2 per-source experiment). Cardinality is bounded: beyond
	// maxTrackedSources distinct names, counts fold into "other".
	perSource map[string]int
}

// maxTrackedSources caps the per-source diagnostics map so a daemon fed
// by a misbehaving feed (unique source strings per event) cannot grow it
// without bound.
const maxTrackedSources = 64

// otherSources is the overflow bucket once maxTrackedSources is reached.
const otherSources = "other"

// NewDetector builds the service; feed it with Process or ProcessBatch.
func NewDetector(cfg *Config) *Detector { return newDetector(cfg, newIncidents(cfg)) }

func newDetector(cfg *Config, incidents *Incidents) *Detector {
	d := &Detector{incidents: incidents, perSource: make(map[string]int)}
	d.cfg.Store(cfg)
	return d
}

// Config returns the active configuration snapshot. Treat it as
// immutable: reconfiguration installs a new snapshot instead of mutating
// the current one.
func (d *Detector) Config() *Config { return d.cfg.Load() }

// setConfig installs a new configuration snapshot. The alert dedup set
// carries over (an incident seen under the old config stays deduplicated)
// and is retuned to the snapshot's TTL/size bounds: a shrunk window
// expires or evicts immediately, a grown one extends the life of what is
// already in the set.
func (d *Detector) setConfig(next *Config) {
	d.cfg.Store(next)
	d.incidents.mu.Lock()
	d.incidents.seen.SetBounds(next.AlertDedupTTL, next.AlertDedupMax)
	d.incidents.mu.Unlock()
}

// OnAlert registers a handler invoked synchronously for each new alert.
func (d *Detector) OnAlert(fn func(Alert)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers = append(d.handlers, fn)
}

// classify is the pure (stateless, lock-free) detection stage: it decides
// whether one feed event evidences a hijack of the owned space. counted
// reports whether the event is a well-formed announcement (the per-source
// diagnostics counter's criterion); isAlert reports whether alert carries
// a hijack candidate. This serial form resolves the owned-space match with
// a linear scan; the pipeline resolves it once per event during routing
// (trie LPM) and calls classifyRouted directly.
func (c *Config) classify(ev *feedtypes.Event) (alert Alert, counted, isAlert bool) {
	if ev.Kind != feedtypes.Announce {
		return Alert{}, false, false // withdrawals never signal a hijack by themselves
	}
	owned, rel, _ := c.matchOwned(ev.Prefix) // rel is 0 when nothing collides
	return c.classifyRouted(ev, owned, rel)
}

// classifyRouted is classify with the owned-space match already resolved
// (rel == 0 means "no collision"). The pipeline's router finds the owned
// prefix once per event via the prefix trie — a single LPM walk instead of
// the serial path's linear scan over every owned prefix — and reuses
// that answer here, so the expensive half of classification is not
// repeated. For disjoint owned prefixes (the operational norm) the result
// is identical to classify; with nested owned prefixes the router resolves
// the overlap by specificity where the linear scan uses config order.
func (c *Config) classifyRouted(ev *feedtypes.Event, owned prefix.Prefix, rel AlertType) (alert Alert, counted, isAlert bool) {
	if ev.Kind != feedtypes.Announce {
		return Alert{}, false, false
	}
	origin, ok := ev.Origin()
	if !ok {
		return Alert{}, false, false
	}
	counted = true
	if rel == 0 {
		return Alert{}, counted, false
	}
	if c.originLegit(origin) {
		// A more-specific announcement of owned space that we did not make
		// ourselves is a hijack regardless of the claimed origin: the
		// operator knows exactly what it announces (§2), and an attacker
		// can put the legitimate origin at the tail of a forged path — the
		// "hidden" sub-prefix hijack. Owned prefixes themselves and
		// registered self-announcements (mitigation de-aggregations coming
		// back through the feeds) are expected; everything else alerts. No
		// RPKI fast-reject here: a ROA covering the origin says nothing
		// when the origin itself is forged.
		if rel == AlertSubPrefix && !c.expectedAnnouncement(ev.Prefix) {
			alert = Alert{Type: AlertSubPrefix, Prefix: ev.Prefix, Owned: owned, Origin: origin}
			alert.Evidence = *ev
			alert.DetectedAt = ev.EmittedAt
			return alert, counted, true
		}
		// Origin fine; check the adjacent upstream when a policy exists.
		// Path[len-1] is the origin, but origins routinely prepend
		// themselves for traffic engineering (…, upstream, origin,
		// origin), so the true upstream is the last hop before the run of
		// origin copies — naively taking Path[len-2] would flag the origin
		// as its own disallowed neighbor. A path that is only the origin
		// (prepended or not) is its own vantage point — nothing to check.
		up := len(ev.Path) - 2
		for up >= 0 && ev.Path[up] == origin {
			up--
		}
		if up < 0 {
			return Alert{}, counted, false
		}
		upstream := ev.Path[up]
		if c.upstreamAllowed(origin, upstream) {
			return Alert{}, counted, false
		}
		alert = Alert{Type: AlertPathAnomaly, Prefix: ev.Prefix, Owned: owned, Origin: upstream}
	} else {
		verdict := ""
		if c.RPKI != nil {
			// Origin validation runs only on the rare alert-raising path,
			// so the allocation-free hot path is untouched; the verdict
			// strings are constants.
			switch c.RPKI.Validate(ev.Prefix, origin) {
			case rpki.Valid:
				// A ROA authorizes this (origin, prefix): not an origin
				// hijack, whatever the local origin list says. Fast-reject
				// before any alert bookkeeping.
				return Alert{}, counted, false
			case rpki.Invalid:
				verdict = rpki.Invalid.String()
			default:
				verdict = rpki.NotFound.String()
			}
		}
		alert = Alert{Type: rel, Prefix: ev.Prefix, Owned: owned, Origin: origin, RPKI: verdict}
	}
	alert.Evidence = *ev
	alert.DetectedAt = ev.EmittedAt
	return alert, counted, true
}

// commit deduplicates a classified alert and dispatches handlers. It is
// the serialized stage: whatever goroutine runs it (callers of Process, or
// the pipeline's sink) sees alerts in a single total order.
func (d *Detector) commit(alert Alert) {
	if !d.incidents.commit(&alert) {
		return
	}
	d.mu.Lock()
	handlers := d.handlers[:len(d.handlers):len(d.handlers)]
	d.mu.Unlock()
	for _, fn := range handlers {
		fn(alert)
	}
}

// addSourceCount folds one source's event count into the diagnostics
// counter — the pipeline's sink calls it per (tenant, source) tally entry,
// so the allocation-free path needs no maps. A new name folds into the
// overflow bucket once the map is at capacity.
func (d *Detector) addSourceCount(src string, n int) {
	d.mu.Lock()
	if _, ok := d.perSource[src]; !ok && len(d.perSource) >= maxTrackedSources {
		src = otherSources
	}
	d.perSource[src] += n
	d.mu.Unlock()
}

// Process classifies one feed event. It is exported so network clients
// (which deliver events on their own goroutines) can push into the
// detector directly.
func (d *Detector) Process(ev feedtypes.Event) {
	alert, counted, isAlert := d.Config().classify(&ev)
	if counted {
		d.addSourceCount(ev.Source, 1)
	}
	if isAlert {
		d.commit(alert)
	}
}

// ProcessBatch classifies a batch of feed events in order on the calling
// goroutine — the serial reference path the sharded pipeline is measured
// against (and the fallback for consumers that don't need one).
func (d *Detector) ProcessBatch(evs []feedtypes.Event) {
	for i := range evs {
		d.Process(evs[i])
	}
}

// Alerts returns all alerts raised so far.
func (d *Detector) Alerts() []Alert { return append([]Alert(nil), d.incidents.alertLog()...) }

// EachAlert calls fn with each alert raised so far, oldest first. fn runs
// on a snapshot of the append-only log without holding a lock: a slow fn
// (an HTTP response) never stalls alert commit.
func (d *Detector) EachAlert(fn func(Alert)) {
	for _, a := range d.incidents.alertLog() {
		fn(a)
	}
}

// AlertCount reports the number of alerts raised so far without copying
// them — the metrics-scrape path.
func (d *Detector) AlertCount() int { return len(d.incidents.alertLog()) }

// DedupSize reports how many incidents the dedup set currently holds —
// with AlertDedupTTL/AlertDedupMax configured it is bounded, and the
// metrics endpoint exposes it so operators can verify that.
func (d *Detector) DedupSize() int {
	d.incidents.mu.Lock()
	defer d.incidents.mu.Unlock()
	return d.incidents.seen.Len()
}

// EventsBySource reports how many matching events each source delivered.
func (d *Detector) EventsBySource() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.perSource))
	for k, v := range d.perSource {
		out[k] = v
	}
	return out
}
