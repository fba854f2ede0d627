// Package route implements the BGP route selection machinery of a single
// AS: candidate routes learned from neighbors (Adj-RIB-In), the Gao–Rexford
// decision process that picks a best route per prefix (Loc-RIB), and the
// valley-free export policy that decides which neighbors may hear about it.
//
// The decision process is the standard economic model of inter-domain
// routing: prefer routes through customers (they pay us) over peers (free)
// over providers (we pay), then shorter AS paths, then a deterministic
// tiebreak. Longest-prefix match lives on top of this per-prefix selection
// and is what ARTEMIS's de-aggregation mitigation exploits.
package route

import (
	"fmt"
	"slices"
	"strings"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/topo"
)

// Route is one candidate path for a prefix as known by a specific AS.
type Route struct {
	Prefix prefix.Prefix
	// Path is the AS path as received: Path[0] is the neighbor that sent
	// it, Path[len-1] the origin. Empty for locally originated routes.
	Path []bgp.ASN
	// From is the neighbor the route was learned from; 0 for local routes.
	From bgp.ASN
	// Rel is the business relationship of From (meaningless when local).
	Rel topo.Rel
}

// Local reports whether the route is locally originated.
func (r *Route) Local() bool { return r.From == 0 }

// Origin returns the origin AS. self is the owning AS, returned for
// locally originated routes.
func (r *Route) Origin(self bgp.ASN) bgp.ASN {
	if len(r.Path) == 0 {
		return self
	}
	return r.Path[len(r.Path)-1]
}

// LocalPref is the Gao–Rexford preference class of the route.
func (r *Route) LocalPref() int {
	if r.Local() {
		return 400
	}
	switch r.Rel {
	case topo.Customer:
		return 300
	case topo.Peer:
		return 200
	default: // provider
		return 100
	}
}

// Equal reports whether two routes carry identical content: same prefix,
// same AS path, learned from the same neighbor under the same relationship.
// A duplicate UPDATE re-announcing an unchanged route is Equal to the
// installed candidate even though it arrives as a distinct allocation.
func (r *Route) Equal(o *Route) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Prefix == o.Prefix && r.From == o.From && r.Rel == o.Rel &&
		slices.Equal(r.Path, o.Path)
}

// HasLoop reports whether asn already appears in the AS path — the RFC 4271
// loop-prevention check applied on receipt.
func (r *Route) HasLoop(asn bgp.ASN) bool { return slices.Contains(r.Path, asn) }

func (r *Route) String() string {
	if r == nil {
		return "<none>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s via", r.Prefix)
	if r.Local() {
		b.WriteString(" local")
		return b.String()
	}
	for _, a := range r.Path {
		fmt.Fprintf(&b, " %d", uint32(a))
	}
	return b.String()
}

// Better reports whether a is preferred over b under the decision process.
// Both must be non-nil candidates for the same prefix.
//
// Order: higher local-pref (customer > peer > provider), then shorter AS
// path, then lowest neighbor ASN as a deterministic tiebreak (standing in
// for router-ID comparison).
func Better(a, b *Route) bool {
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		return la > lb
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.From < b.From
}

// Exportable reports whether a route may be advertised to a neighbor with
// relationship rel, under valley-free (Gao–Rexford) export:
//
//   - locally originated and customer-learned routes go to everyone;
//   - peer- and provider-learned routes go to customers only.
func Exportable(r *Route, rel topo.Rel) bool {
	if r.Local() || r.Rel == topo.Customer {
		return true
	}
	return rel == topo.Customer
}
