package artemis

import (
	"context"
	"fmt"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/rib"
	"artemis/internal/rpki"
)

// ErrRIBDisabled is returned by Lookup when the node has no route table
// (the rib: config block is not enabled).
var ErrRIBDisabled = fmt.Errorf("artemis: route table not enabled (set rib: in the config)")

// setupRouteIntel loads the node's route-intelligence state from cfg:
// the AS-name registry, the ROA table (file or URL fetch) and the route
// table with its optional full-dump bootstrap. Called once from New,
// before tenant stacks are built — their lowered configs embed the ROA
// table snapshot.
func (n *Node) setupRouteIntel(cfg *Config) error {
	if cfg.ASNames.Path != "" {
		names, err := rib.LoadASNames(cfg.ASNames.Path)
		if err != nil {
			return fmt.Errorf("artemis: asnames: %w", err)
		}
		n.asNames = names
		n.opts.logf("artemis: asnames: %d registry entries", names.Len())
	}
	switch {
	case cfg.RPKI.Path != "":
		tb, err := rpki.LoadFile(cfg.RPKI.Path)
		if err != nil {
			return fmt.Errorf("artemis: rpki: %w", err)
		}
		n.roas.Store(tb)
		n.opts.logf("artemis: rpki: %d ROAs loaded", tb.Len())
	case cfg.RPKI.URL != "":
		tb, err := rpki.Fetch(cfg.RPKI.URL, 0)
		if err != nil {
			return fmt.Errorf("artemis: rpki: %w", err)
		}
		n.roas.Store(tb)
		n.opts.logf("artemis: rpki: %d ROAs fetched", tb.Len())
	}
	if cfg.RIB.Enabled || cfg.RIB.Path != "" {
		n.rib = rib.New()
		if cfg.RIB.Path != "" {
			st, err := rib.LoadFile(cfg.RIB.Path, n.rib)
			if err != nil {
				return fmt.Errorf("artemis: rib bootstrap: %w", err)
			}
			n.ribLoad = st
			n.opts.logf("artemis: rib bootstrap: %s", st)
		}
	}
	return nil
}

// refreshRPKILoop re-fetches the ROA export every interval and installs
// each new table with setROATable. A failed fetch keeps the previous
// table and retries next tick.
func (n *Node) refreshRPKILoop(ctx context.Context, url string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.drained:
			return
		case <-t.C:
			tb, err := rpki.Fetch(url, 0)
			if err != nil {
				n.opts.logf("artemis: rpki refresh: %v", err)
				continue
			}
			n.setROATable(tb)
		}
	}
}

// setROATable installs a new ROA table by re-applying the current config:
// every tenant's lowered config now carries the table, and all of them
// swap at one pipeline barrier, so the serial/pipeline equivalence
// argument is untouched by refreshes.
func (n *Node) setROATable(tb *rpki.Table) {
	n.mu.Lock()
	n.roas.Store(tb)
	err := n.applyLocked(n.cfg)
	n.mu.Unlock()
	if err != nil {
		n.opts.logf("artemis: rpki refresh: %v", err)
		return
	}
	n.opts.logf("artemis: rpki table refreshed (%d ROAs)", tb.Len())
}

// enrichAlert stamps the offending origin's registry name and locale
// onto an alert, when an AS-name registry is configured.
func (n *Node) enrichAlert(a *Alert) {
	if n.asNames == nil {
		return
	}
	if info, ok := n.asNames.Lookup(bgp.ASN(a.Origin)); ok {
		a.OriginName, a.OriginLocale = info.Name, info.Locale
	}
}

// LookupResult is one glass-style route lookup answer: the best route
// the node's table holds for the longest prefix covering the query.
type LookupResult struct {
	// Query is the canonicalized query; Matched the longest-match table
	// entry that answered it.
	Query   string `json:"query"`
	Matched string `json:"matched"`
	// Origin is the best route's originating AS, named when an AS-name
	// registry is configured.
	Origin       uint32 `json:"origin"`
	OriginName   string `json:"origin_name,omitempty"`
	OriginLocale string `json:"origin_locale,omitempty"`
	// Path is the best route's AS path as seen from VantagePoint.
	Path         []uint32 `json:"path"`
	VantagePoint uint32   `json:"vantage_point"`
	// Candidates counts the table's routes for the matched prefix (one
	// per vantage point carrying it).
	Candidates int `json:"candidates"`
	// RPKI is the origin-validation verdict for (matched, origin) when a
	// ROA table is configured: "valid", "invalid" or "unknown".
	RPKI string `json:"rpki,omitempty"`
}

// Lookup resolves a prefix — or a bare address, taken as a host route —
// against the node's route table, longest match. ErrRIBDisabled when the
// rib: block is not enabled; ok false when nothing covers the query.
func (n *Node) Lookup(query string) (LookupResult, bool, error) {
	if n.rib == nil {
		return LookupResult{}, false, ErrRIBDisabled
	}
	p, err := prefix.Parse(query)
	if err != nil {
		a, aerr := prefix.ParseAddr(query)
		if aerr != nil {
			return LookupResult{}, false, fmt.Errorf("artemis: bad lookup query %q: %v", query, err)
		}
		bits := 32
		if a.Is6() {
			bits = 128
		}
		p = prefix.New(a, bits)
	}
	r, ok := n.rib.Lookup(p)
	if !ok {
		return LookupResult{Query: p.String()}, false, nil
	}
	out := LookupResult{
		Query:        p.String(),
		Matched:      r.Matched.String(),
		Origin:       uint32(r.Origin),
		VantagePoint: uint32(r.VantagePoint),
		Candidates:   r.Candidates,
		Path:         make([]uint32, len(r.Path)),
	}
	for i, asn := range r.Path {
		out.Path[i] = uint32(asn)
	}
	if n.asNames != nil {
		if info, found := n.asNames.Lookup(r.Origin); found {
			out.OriginName, out.OriginLocale = info.Name, info.Locale
		}
	}
	if tb := n.roas.Load(); tb != nil {
		out.RPKI = tb.Validate(r.Matched, r.Origin).String()
	}
	return out, true, nil
}

// ASInfo is the glass-style per-AS answer: registry identity plus how
// much of the node's table the AS currently originates.
type ASInfo struct {
	ASN    uint32 `json:"asn"`
	Name   string `json:"name,omitempty"`
	Locale string `json:"locale,omitempty"`
	// PrefixesV4/V6 count table prefixes whose best route originates at
	// this AS (zero when the rib: block is not enabled).
	PrefixesV4 int64 `json:"prefixes_v4"`
	PrefixesV6 int64 `json:"prefixes_v6"`
}

// ASInfo reports what the node knows about an AS. known is false when
// neither the registry nor the route table has anything on it.
func (n *Node) ASInfo(asn uint32) (ASInfo, bool) {
	out := ASInfo{ASN: asn}
	known := false
	if n.asNames != nil {
		if info, found := n.asNames.Lookup(bgp.ASN(asn)); found {
			out.Name, out.Locale = info.Name, info.Locale
			known = true
		}
	}
	if n.rib != nil {
		out.PrefixesV4, out.PrefixesV6 = n.rib.OriginCounts(bgp.ASN(asn))
		if out.PrefixesV4+out.PrefixesV6 > 0 {
			known = true
		}
	}
	return out, known
}

// RIBEnabled reports whether the node maintains a route table.
func (n *Node) RIBEnabled() bool { return n.rib != nil }

// RIBStats snapshots the route table's size, origin and movement
// counters (zero value when the table is not enabled).
func (n *Node) RIBStats() rib.Stats {
	if n.rib == nil {
		return rib.Stats{}
	}
	return n.rib.Snapshot()
}

// RIBBootstrap reports the startup full-dump load's statistics (zero
// value when no rib: path was configured).
func (n *Node) RIBBootstrap() rib.LoadStats { return n.ribLoad }
