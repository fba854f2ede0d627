// Package core implements ARTEMIS itself — the paper's contribution: a
// self-operated system that detects hijacks of an AS's own prefixes in
// near real time from multiple BGP monitoring feeds, and automatically
// mitigates them by announcing de-aggregated sub-prefixes through an SDN
// controller (§2, Fig. 1).
//
// Three services, mirroring the paper's architecture:
//
//   - Detector: consumes every configured feed, flags announcements of
//     owned address space with an illegitimate origin (exact-prefix,
//     sub-prefix, or super-prefix/squatting) or an illegitimate first hop
//     (path anomaly), deduplicates, and raises alerts. Because all feeds
//     are watched concurrently, detection delay is the minimum of the
//     sources' delays.
//   - Mitigator: on alert, computes the de-aggregation of the attacked
//     address space (clamped at /24 — longer prefixes are filtered, §2)
//     and asks the controller to announce the sub-prefixes.
//   - Monitor: tracks, per vantage point, which origin currently captures
//     the owned address space, yielding the real-time mitigation-progress
//     view the demo (§4) visualizes.
package core

import (
	"fmt"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/rpki"
)

// Config is the operator-supplied ground truth about the protected AS.
type Config struct {
	// OwnedPrefixes is the address space ARTEMIS protects.
	OwnedPrefixes []prefix.Prefix
	// LegitOrigins are the ASNs allowed to originate the owned prefixes
	// (usually just the protected AS; multi-origin setups list several).
	LegitOrigins []bgp.ASN
	// AllowedUpstreams, when non-empty, enables path-anomaly (Type-1)
	// detection: for each legitimate origin, the set of neighbor ASes that
	// may appear adjacent to it in an AS path. An attacker that fakes the
	// origin but splices itself in as the upstream is caught here.
	AllowedUpstreams map[bgp.ASN][]bgp.ASN
	// MaxDeaggregationLen clamps mitigation sub-prefixes for IPv4 owned
	// space (default 24: more specific prefixes are filtered by ISPs, §2).
	MaxDeaggregationLen int
	// MaxDeaggregationLen6 is the IPv6 clamp (default 48, the v6 analogue
	// of the /24 filtering convention).
	MaxDeaggregationLen6 int
	// ManualMitigation disables the automatic alert→mitigation wiring;
	// the operator must call Mitigator.HandleAlert. The zero value is the
	// paper's headline mode: fully automatic.
	ManualMitigation bool
	// AlertDedupTTL bounds how long a raised incident suppresses duplicate
	// alerts; after it, a recurring hijack is re-raised (and re-mitigated).
	// 0 keeps incidents forever — the virtual-time experiments' semantics.
	// Long-running daemons should set it so the dedup set cannot grow
	// without bound.
	AlertDedupTTL time.Duration
	// AlertDedupMax caps the incident dedup set; beyond it the oldest
	// incident is evicted (and would re-alert if seen again). 0 =
	// unbounded.
	AlertDedupMax int
	// MaxMitigationRetries bounds how many times a failed mitigation is
	// automatically re-attempted before the incident is left to the
	// operator. 0 selects DefaultMaxMitigationRetries. Hot-tunable: the
	// retry loop reads the active snapshot on every failure.
	MaxMitigationRetries int
	// MaxEventsPerSecond, when positive, is this config scope's fair-share
	// classification quota: matched events beyond the budget (token bucket
	// clocked by event time, burst of one second) are dropped for this
	// scope only — counted, not classified, not folded into the monitor.
	// In a multi-tenant pipeline this is what keeps one tenant under a
	// hijack storm from starving the others' classification capacity. 0
	// disables the quota (and keeps classification exactly deterministic).
	MaxEventsPerSecond int
	// RPKI, when set, enables route-origin validation (RFC 6811) in the
	// classifier: a ROA-valid announcement of owned space is fast-rejected
	// (it cannot be an origin hijack), and origin alerts carry the verdict
	// ("invalid" / "unknown") as evidence. The table is an immutable
	// snapshot like the rest of the config — a ROA refresh installs a new
	// config, so the pipeline/serial equivalence argument is untouched.
	RPKI *rpki.Table
	// Self is the registry of more-specific announcements ARTEMIS itself
	// originates (mitigation de-aggregations). Shared by reference across
	// snapshots like RPKI; NewService installs one when nil. It is what
	// lets the detector flag forged-legit-origin sub-prefix hijacks
	// ("hidden" hijacks) without alerting on its own mitigation routes.
	// Operators doing sub-prefix traffic engineering should list those
	// prefixes in OwnedPrefixes — anything announced that is neither owned
	// nor registered here is treated as hijacked space.
	Self *SelfAnnounced
	// MitigationRatePerMin, when positive, bounds automatic
	// alert→mitigation dispatches per minute (wall clock, token bucket,
	// burst of one minute's allowance). Excess alerts are dropped from
	// auto-mitigation (counted and reported); retries of already-dispatched
	// incidents are exempt. 0 disables the limit.
	MitigationRatePerMin int
}

// Clone returns a deep copy of the configuration. Reconfiguration treats
// installed configs as immutable snapshots, so callers that want to derive
// a new config from the current one clone first and mutate the copy.
func (c *Config) Clone() *Config {
	next := *c
	next.OwnedPrefixes = append([]prefix.Prefix(nil), c.OwnedPrefixes...)
	next.LegitOrigins = append([]bgp.ASN(nil), c.LegitOrigins...)
	if c.AllowedUpstreams != nil {
		next.AllowedUpstreams = make(map[bgp.ASN][]bgp.ASN, len(c.AllowedUpstreams))
		for k, v := range c.AllowedUpstreams {
			next.AllowedUpstreams[k] = append([]bgp.ASN(nil), v...)
		}
	}
	return &next
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if len(c.OwnedPrefixes) == 0 {
		return fmt.Errorf("core: no owned prefixes configured")
	}
	if len(c.LegitOrigins) == 0 {
		return fmt.Errorf("core: no legitimate origins configured")
	}
	if c.MaxDeaggregationLen < 0 || c.MaxDeaggregationLen > 32 {
		return fmt.Errorf("core: invalid MaxDeaggregationLen %d", c.MaxDeaggregationLen)
	}
	if c.MaxDeaggregationLen6 < 0 || c.MaxDeaggregationLen6 > 128 {
		return fmt.Errorf("core: invalid MaxDeaggregationLen6 %d", c.MaxDeaggregationLen6)
	}
	if c.AlertDedupTTL < 0 {
		return fmt.Errorf("core: negative AlertDedupTTL %v", c.AlertDedupTTL)
	}
	if c.AlertDedupMax < 0 {
		return fmt.Errorf("core: negative AlertDedupMax %d", c.AlertDedupMax)
	}
	if c.MaxMitigationRetries < 0 {
		return fmt.Errorf("core: negative MaxMitigationRetries %d", c.MaxMitigationRetries)
	}
	if c.MaxEventsPerSecond < 0 {
		return fmt.Errorf("core: negative MaxEventsPerSecond %d", c.MaxEventsPerSecond)
	}
	if c.MitigationRatePerMin < 0 {
		return fmt.Errorf("core: negative MitigationRatePerMin %d", c.MitigationRatePerMin)
	}
	seen := make(map[prefix.Prefix]struct{}, len(c.OwnedPrefixes))
	for _, p := range c.OwnedPrefixes {
		if _, dup := seen[p]; dup {
			return fmt.Errorf("core: duplicate owned prefix %s", p)
		}
		seen[p] = struct{}{}
	}
	return nil
}

// maxLenFor returns the de-aggregation clamp for p's family.
func (c *Config) maxLenFor(p prefix.Prefix) int {
	if p.Is6() {
		if c.MaxDeaggregationLen6 == 0 {
			return 48
		}
		return c.MaxDeaggregationLen6
	}
	if c.MaxDeaggregationLen == 0 {
		return 24
	}
	return c.MaxDeaggregationLen
}

func (c *Config) originLegit(asn bgp.ASN) bool {
	for _, o := range c.LegitOrigins {
		if o == asn {
			return true
		}
	}
	return false
}

func (c *Config) upstreamAllowed(origin, upstream bgp.ASN) bool {
	allowed, ok := c.AllowedUpstreams[origin]
	if !ok {
		return true // no policy for this origin → path checks disabled
	}
	for _, a := range allowed {
		if a == upstream {
			return true
		}
	}
	return false
}

// expectedAnnouncement reports whether an announcement of exactly p is one
// the operator makes on purpose: an owned prefix itself, or a registered
// self-announcement (mitigation de-aggregation).
func (c *Config) expectedAnnouncement(p prefix.Prefix) bool {
	for _, o := range c.OwnedPrefixes {
		if p == o {
			return true
		}
	}
	return c.Self.Has(p)
}

// entryLegit decides whether a routed (prefix, origin) observation
// represents legitimate custody of the addresses it covers: the origin
// must be configured legit, and a strict more-specific of owned space must
// additionally be an announcement we expect — a forged legitimate origin
// on an unexpected sub-prefix is a hidden hijack, not legitimacy.
func (c *Config) entryLegit(p prefix.Prefix, origin bgp.ASN) bool {
	if !c.originLegit(origin) {
		return false
	}
	if c.expectedAnnouncement(p) {
		return true
	}
	for _, o := range c.OwnedPrefixes {
		if o.Contains(p) && p != o {
			return false
		}
	}
	return true
}

// matchOwned returns the owned prefix related to p, and the relation:
// exact, sub (p inside owned), or super (p covers owned).
func (c *Config) matchOwned(p prefix.Prefix) (owned prefix.Prefix, rel AlertType, ok bool) {
	for _, o := range c.OwnedPrefixes {
		switch {
		case p == o:
			return o, AlertExactOrigin, true
		case o.Contains(p):
			return o, AlertSubPrefix, true
		case p.Contains(o):
			return o, AlertSquat, true
		}
	}
	return prefix.Prefix{}, 0, false
}
