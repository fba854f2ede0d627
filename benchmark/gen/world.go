// Package gen builds artemis-bench's inputs from a seed: the protected
// address space, the event mix every workload shares, the probe incidents
// whose alerts are timed, and the byte streams each transport carries
// them in (RIS-Live JSON over websocket, BGP4MP records, BMP Route
// Monitoring, event-log lines). The seed is the only source of
// randomness, so a seed names one exact input.
//
// The package imports the repo's codec packages to encode — never the
// detector, the ingest tier or the node — so what it produces is what a
// collector would put on the wire, not what the system expects to read.
package gen

import (
	"fmt"
	"math/rand"

	"artemis/internal/prefix"
)

// The protected network, fixed for every workload.
const (
	LegitOrigin = 61000
	// Upstream0/1 are the neighbors allowed next to LegitOrigin; any other
	// AS adjacent to it is a path anomaly.
	Upstream0 = 1001
	Upstream1 = 1002

	ownedV4 = 1024 // /26s tiling 10.0.0.0/16
	ownedV6 = 64   // /48s at 2001:db8:(2n)::, so each /47 above one covers only it
	numVPs  = 64

	firstVP = 3000
	// echoOrigins announce owned prefixes exactly; their incidents open
	// during warm-up and every later observation is a dedup hit.
	echoOrigins      = 4
	firstEchoOrigin  = 64600
	echoPerOrigin    = 16
	echoHiddenCount  = 64
	firstProbeOrigin = 70000 // one fresh origin per probe: incidents never repeat
	firstProbeSplice = 80000 // one fresh disallowed upstream per path-anomaly probe
	transitBase      = 20000
	transitSpan      = 30000
	unrelatedOrigin  = 64700
	unrelatedTransit = 2914
)

// Tenant is one policy scope of the generated config.
type Tenant struct {
	Name     string
	Token    string
	Prefixes []prefix.Prefix
}

// World is the protected address space and who owns it.
type World struct {
	Tenants []Tenant
	Owned   []prefix.Prefix // v4 first, then v6
	VPs     []uint32
	// AdminToken is set when the control plane is secured (tenant tokens
	// exist); empty leaves the API open.
	AdminToken string

	owners map[prefix.Prefix][]int // owned prefix → indices into Tenants
}

// Owners returns the tenants owning the owned prefix p.
func (w *World) Owners(p prefix.Prefix) []int { return w.owners[p] }

func ownedPrefixes() []prefix.Prefix {
	out := make([]prefix.Prefix, 0, ownedV4+ownedV6)
	for i := 0; i < ownedV4; i++ {
		out = append(out, prefix.New(prefix.AddrFrom4(10<<24|uint32(i)<<6), 26))
	}
	for n := 0; n < ownedV6; n++ {
		hi := uint64(0x20010db8)<<32 | uint64(2*n)<<16
		out = append(out, prefix.New(prefix.AddrFrom16(hi, 0), 48))
	}
	return out
}

// NewWorld returns the protected network of a workload. It does not
// depend on the seed.
func NewWorld(workload string) *World {
	if workload == GlassMixed {
		return newWorld(tenantsHosted)
	}
	return newWorld(1)
}

// newWorld builds the single-operator world, or with tenants > 1 the
// hosted one: prefix i belongs to tenant i mod tenants, and each tenant
// also co-owns the first prefix of the next tenant, so one in ten
// prefixes fans out to two policies.
func newWorld(tenants int) *World {
	w := &World{Owned: ownedPrefixes(), owners: make(map[prefix.Prefix][]int)}
	for i := 0; i < numVPs; i++ {
		w.VPs = append(w.VPs, uint32(firstVP+i))
	}
	if tenants <= 1 {
		w.Tenants = []Tenant{{Name: "default", Prefixes: w.Owned}}
		for _, p := range w.Owned {
			w.owners[p] = []int{0}
		}
		return w
	}
	w.AdminToken = "bench-admin"
	w.Tenants = make([]Tenant, tenants)
	for t := range w.Tenants {
		w.Tenants[t] = Tenant{Name: fmt.Sprintf("t%03d", t), Token: fmt.Sprintf("tok-t%03d", t)}
	}
	own := func(t int, p prefix.Prefix) {
		w.Tenants[t].Prefixes = append(w.Tenants[t].Prefixes, p)
		w.owners[p] = append(w.owners[p], t)
	}
	for i, p := range w.Owned {
		own(i%tenants, p)
	}
	for t := 0; t < tenants; t++ {
		own(t, w.Owned[(t+1)%tenants])
	}
	return w
}

// subPool hands out more-specifics of the v4 owned space, each at most
// once per run: an incident's mitigation registers its prefix as
// self-announced, so a second incident on the same prefix would classify
// differently depending on which came first.
type subPool struct {
	all  []prefix.Prefix
	next int
}

func newSubPool(owned []prefix.Prefix, rnd *rand.Rand) *subPool {
	sp := &subPool{}
	for _, o := range owned[:ownedV4] {
		lo, hi := o.Split()
		sp.all = append(sp.all, lo, hi)
	}
	for _, o := range owned[:ownedV4] {
		quarters, _ := o.Deaggregate(28)
		sp.all = append(sp.all, quarters...)
	}
	rnd.Shuffle(len(sp.all), func(i, j int) { sp.all[i], sp.all[j] = sp.all[j], sp.all[i] })
	return sp
}

func (sp *subPool) take() prefix.Prefix {
	if sp.next >= len(sp.all) {
		panic("gen: more-specific pool exhausted; lower the probe rate or the run length")
	}
	p := sp.all[sp.next]
	sp.next++
	return p
}

// ownedOf returns the owned prefix containing the v4 more-specific p.
func ownedOf(p prefix.Prefix) prefix.Prefix {
	return prefix.New(p.Addr(), 26)
}
