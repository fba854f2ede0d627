// Package oracle computes, from the generator's own event sequence, the
// set of incidents a run must raise: every group is replayed through the
// serial core.Detector — the single-threaded reference the sharded
// pipeline is defined against — at generation time. The end-to-end
// harness never imports this package's dependencies; it only receives
// the resulting set and compares GET /v1/alerts against it.
package oracle

import (
	"artemis/benchmark/gen"
	"artemis/internal/bgp"
	"artemis/internal/core"
	"artemis/internal/feeds/feedtypes"
)

// Oracle accumulates the expected incidents of one run.
type Oracle struct {
	w    *gen.World
	det  *core.Detector
	path []bgp.ASN
}

// New builds the reference detector over w's whole owned space. Every
// tenant of a hosted world has the same origin and upstream policy, so
// one detector over the union decides what is an incident and ownership
// decides whose: an incident on a prefix belongs to each tenant owning
// the matched prefix.
func New(w *gen.World) *Oracle {
	cfg := &core.Config{
		OwnedPrefixes:    w.Owned,
		LegitOrigins:     []bgp.ASN{gen.LegitOrigin},
		AllowedUpstreams: map[bgp.ASN][]bgp.ASN{gen.LegitOrigin: {gen.Upstream0, gen.Upstream1}},
	}
	return &Oracle{w: w, det: core.NewDetector(cfg)}
}

// Observe replays one generated group; it is gen.Build's observer.
func (o *Oracle) Observe(g *gen.Group) {
	ev := feedtypes.Event{
		Source:       "oracle",
		VantagePoint: bgp.ASN(g.VP),
		SeenAt:       g.Seen,
		EmittedAt:    g.Seen,
	}
	if g.Withdraw {
		ev.Kind = feedtypes.Withdraw
	} else {
		// The detector copies the evidence path of a fresh incident, so
		// one buffer serves every group.
		o.path = o.path[:0]
		for _, as := range g.Path {
			o.path = append(o.path, bgp.ASN(as))
		}
		ev.Path = o.path
	}
	for _, p := range g.Prefixes {
		ev.Prefix = p
		o.det.Process(ev)
	}
}

// Incidents returns the incidents raised so far, one per owning tenant.
func (o *Oracle) Incidents() map[gen.Incident]bool {
	out := make(map[gen.Incident]bool)
	for _, a := range o.det.Alerts() {
		for _, t := range o.w.Owners(a.Owned) {
			out[gen.Incident{
				Tenant: o.w.Tenants[t].Name,
				Type:   a.Type.String(),
				Prefix: a.Prefix.String(),
				Owned:  a.Owned.String(),
				Origin: uint32(a.Origin),
			}] = true
		}
	}
	return out
}
