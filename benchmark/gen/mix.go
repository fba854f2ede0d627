package gen

import (
	"math/rand"
	"time"

	"artemis/internal/prefix"
)

// Class labels what a route change is in the workload's event mix.
type Class uint8

const (
	// BenignExact: an owned prefix, legitimate origin, allowed upstream.
	BenignExact Class = iota
	// BenignWithdraw: a withdrawal of an owned prefix.
	BenignWithdraw
	// Unrelated: an announcement outside the owned space.
	Unrelated
	// EchoOrigin: a re-observation of an exact-origin incident opened
	// during warm-up.
	EchoOrigin
	// EchoHidden: a re-observation of a legitimate-origin sub-prefix
	// incident opened during warm-up.
	EchoHidden
	// Probe: a fresh incident whose alert is timed.
	Probe
	// Opener: a warm-up announcement that opens an echo incident.
	Opener
	NumClasses
)

func (c Class) String() string {
	return [...]string{"benign_exact", "benign_withdraw", "unrelated", "echo_origin", "echo_hidden", "probe", "opener"}[c]
}

// mixDeck is the event mix in twentieths of the non-probe events:
// 70% benign_exact, 10% benign_withdraw, 10% unrelated, 5% echo_origin,
// 5% echo_hidden. The deck is reshuffled every twenty groups, so the
// shares hold over any window of that length, not only in expectation.
var mixDeck = [20]Class{
	BenignExact, BenignExact, BenignExact, BenignExact, BenignExact, BenignExact, BenignExact,
	BenignExact, BenignExact, BenignExact, BenignExact, BenignExact, BenignExact, BenignExact,
	BenignWithdraw, BenignWithdraw, Unrelated, Unrelated, EchoOrigin, EchoHidden,
}

// v6Share is the fraction of benign and unrelated groups that are IPv6.
const v6Share = 0.10

// Group is one route change at one vantage point: the prefixes of one
// UPDATE, sharing one AS path. A transport that carries one prefix per
// message sends it as len(Prefixes) messages.
type Group struct {
	Class    Class
	VP       uint32
	Withdraw bool
	Path     []uint32 // VP first, origin last; nil for a withdrawal
	Prefixes []prefix.Prefix
	// Seen is the event time of the change (offset from the sim epoch
	// the MRT and BMP decoders subtract). The builders make it unique per
	// group wherever the transport's resolution allows.
	Seen time.Duration
}

// Incident identifies one alert the system must raise: the key the
// oracle, the generator's own expectations and GET /v1/alerts are
// compared on.
type Incident struct {
	Tenant string
	Type   string
	Prefix string
	Owned  string
	Origin uint32
}

// Expect is what one incident-opening announcement must cause: one alert
// per owning tenant, each followed by one controller POST announcing
// Announce.
type Expect struct {
	Incidents []Incident
	Announce  string
}

// mixer draws the shared event mix and the probe incidents.
type mixer struct {
	w    *World
	rnd  *rand.Rand
	pool *subPool

	n       uint64 // groups drawn; seeds the per-group transit AS
	deck    [20]Class
	deckPos int

	unrelated4, unrelated6 []prefix.Prefix
	echoSets               [echoOrigins][]prefix.Prefix
	hidden                 []prefix.Prefix

	cur struct {
		exact4, exact6, wd4, wd6, unrel4, unrel6, echo, hidden int
		probeExact, probeAnomaly, probeSquat                   int
	}
	wdSeen4, wdSeen6 int // prefixes withdrawn so far, per family
	probes           int

	// Events counts the events drawn per class.
	Events [NumClasses]int
}

func newMixer(w *World, seed int64) *mixer {
	rnd := rand.New(rand.NewSource(seed))
	m := &mixer{w: w, rnd: rnd, pool: newSubPool(w.Owned, rnd), deckPos: len(mixDeck)}
	start := rnd.Intn(ownedV4)
	for j := range m.echoSets {
		for i := 0; i < echoPerOrigin; i++ {
			m.echoSets[j] = append(m.echoSets[j], w.Owned[(start+j*echoPerOrigin+i)%ownedV4])
		}
	}
	for i := 0; i < echoHiddenCount; i++ {
		m.hidden = append(m.hidden, m.pool.take())
	}
	for i := 0; i < 1024; i++ {
		m.unrelated4 = append(m.unrelated4, prefix.New(prefix.AddrFrom4(172<<24|20<<16|uint32(i)<<8), 24))
	}
	for i := 0; i < 256; i++ {
		m.unrelated6 = append(m.unrelated6, prefix.New(prefix.AddrFrom16(uint64(0x2400cb00)<<32|uint64(i)<<16, 0), 48))
	}
	m.cur.probeExact = rnd.Intn(ownedV4)
	m.cur.probeAnomaly = rnd.Intn(ownedV4)
	return m
}

// transit is the per-group AS between the vantage point and the
// upstream: it makes every announcement's path unique among the 30000
// groups around it, so a transport with one-second timestamps still
// never repeats a (vantage point, prefix, time, path) identity.
func (m *mixer) transit() uint32 { return transitBase + uint32(m.n%transitSpan) }

func (m *mixer) legitPath(vp uint32) []uint32 {
	up := uint32(Upstream0)
	if m.n&1 == 1 {
		up = Upstream1
	}
	return []uint32{vp, m.transit(), up, LegitOrigin}
}

func (m *mixer) randomVP() uint32 { return m.w.VPs[m.rnd.Intn(len(m.w.VPs))] }

// window returns k consecutive entries of list starting at *cur
// (wrapping) and advances the cursor past them.
func window(list []prefix.Prefix, cur *int, k int) []prefix.Prefix {
	if k > len(list) {
		k = len(list)
	}
	out := make([]prefix.Prefix, k)
	for i := range out {
		out[i] = list[(*cur+i)%len(list)]
	}
	*cur = (*cur + k) % len(list)
	return out
}

// next draws one bulk group of k prefixes. The caller stamps Seen.
func (m *mixer) next(k int) Group {
	if m.deckPos == len(m.deck) {
		m.deck = mixDeck
		m.rnd.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.deckPos = 0
	}
	class := m.deck[m.deckPos]
	m.deckPos++
	m.n++
	vp := m.randomVP()
	v6 := m.rnd.Float64() < v6Share
	g := Group{Class: class, VP: vp}
	switch class {
	case BenignExact:
		g.Path = m.legitPath(vp)
		if v6 {
			g.Prefixes = window(m.w.Owned[ownedV4:], &m.cur.exact6, k)
		} else {
			g.Prefixes = window(m.w.Owned[:ownedV4], &m.cur.exact4, k)
		}
	case BenignWithdraw:
		// Withdrawals carry no path, so on a one-second clock only the
		// vantage point keeps two withdrawals of one prefix apart: it
		// steps once per full walk of the owned list.
		g.Withdraw = true
		if v6 {
			g.VP = m.w.VPs[(m.wdSeen6/ownedV6)%len(m.w.VPs)]
			g.Prefixes = window(m.w.Owned[ownedV4:], &m.cur.wd6, k)
			m.wdSeen6 += len(g.Prefixes)
		} else {
			g.VP = m.w.VPs[(m.wdSeen4/ownedV4)%len(m.w.VPs)]
			g.Prefixes = window(m.w.Owned[:ownedV4], &m.cur.wd4, k)
			m.wdSeen4 += len(g.Prefixes)
		}
	case Unrelated:
		g.Path = []uint32{vp, m.transit(), unrelatedTransit, unrelatedOrigin}
		if v6 {
			g.Prefixes = window(m.unrelated6, &m.cur.unrel6, k)
		} else {
			g.Prefixes = window(m.unrelated4, &m.cur.unrel4, k)
		}
	case EchoOrigin:
		j := m.cur.echo % echoOrigins
		start := m.cur.echo / echoOrigins
		m.cur.echo++
		g.Path = []uint32{vp, m.transit(), firstEchoOrigin + uint32(j)}
		g.Prefixes = window(m.echoSets[j], &start, k)
	case EchoHidden:
		g.Path = m.legitPath(vp)
		g.Prefixes = window(m.hidden, &m.cur.hidden, k)
	}
	m.Events[class] += len(g.Prefixes)
	return g
}

// openers returns the warm-up announcements that open every echo
// incident, and what each must cause.
func (m *mixer) openers() ([]Group, []Expect) {
	var groups []Group
	var expects []Expect
	open := func(path []uint32, vp uint32, p prefix.Prefix, typ string, owned prefix.Prefix, origin uint32) {
		m.n++
		path[1] = m.transit()
		groups = append(groups, Group{Class: Opener, VP: vp, Path: append([]uint32(nil), path...), Prefixes: []prefix.Prefix{p}})
		expects = append(expects, m.expect(typ, p, owned, origin, p))
		m.Events[Opener]++
	}
	vp := m.w.VPs[0]
	for j, set := range m.echoSets {
		origin := firstEchoOrigin + uint32(j)
		for _, p := range set {
			open([]uint32{vp, 0, origin}, vp, p, "exact-origin", p, origin)
		}
	}
	for _, p := range m.hidden {
		open([]uint32{vp, 0, Upstream0, LegitOrigin}, vp, p, "sub-prefix", ownedOf(p), LegitOrigin)
	}
	return groups, expects
}

// expect builds the per-tenant incidents of one offending announcement.
func (m *mixer) expect(typ string, p, owned prefix.Prefix, origin uint32, announce prefix.Prefix) Expect {
	e := Expect{Announce: announce.String()}
	for _, t := range m.w.Owners(owned) {
		e.Incidents = append(e.Incidents, Incident{
			Tenant: m.w.Tenants[t].Name, Type: typ,
			Prefix: p.String(), Owned: owned.String(), Origin: origin,
		})
	}
	return e
}

// probe draws the next fresh incident, rotating through the five
// detectable kinds. Each uses an origin (or spliced upstream, or
// more-specific) no other incident of the run uses, so it must raise
// exactly one alert per owning tenant.
func (m *mixer) probe(vp uint32) (Group, Expect) {
	i := m.probes
	m.probes++
	m.n++
	m.Events[Probe]++
	origin := firstProbeOrigin + uint32(i)
	hijack := []uint32{vp, m.transit(), origin}
	g := Group{Class: Probe, VP: vp}
	var e Expect
	switch i % 5 {
	case 0: // exact-origin
		p := window(m.w.Owned[:ownedV4], &m.cur.probeExact, 1)[0]
		g.Path, g.Prefixes = hijack, []prefix.Prefix{p}
		e = m.expect("exact-origin", p, p, origin, p)
	case 1: // sub-prefix
		p := m.pool.take()
		g.Path, g.Prefixes = hijack, []prefix.Prefix{p}
		e = m.expect("sub-prefix", p, ownedOf(p), origin, p)
	case 2: // hidden sub-prefix: the legitimate origin forged onto a more-specific
		p := m.pool.take()
		g.Path, g.Prefixes = m.legitPath(vp), []prefix.Prefix{p}
		e = m.expect("sub-prefix", p, ownedOf(p), LegitOrigin, p)
	case 3: // squat: the /47 above one owned /48 covers that /48 alone
		owned := window(m.w.Owned[ownedV4:], &m.cur.probeSquat, 1)[0]
		p := owned.Parent()
		g.Path, g.Prefixes = hijack, []prefix.Prefix{p}
		e = m.expect("squat", p, owned, origin, owned)
	case 4: // path anomaly: legitimate origin behind a disallowed upstream
		p := window(m.w.Owned[:ownedV4], &m.cur.probeAnomaly, 1)[0]
		splice := firstProbeSplice + uint32(i)
		g.Path, g.Prefixes = []uint32{vp, m.transit(), splice, LegitOrigin}, []prefix.Prefix{p}
		e = m.expect("path-anomaly", p, p, splice, p)
	}
	return g, e
}
