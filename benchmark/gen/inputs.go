package gen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	RISPaced   = "ris-paced"
	MRTReplay  = "mrt-replay"
	BMPFlood   = "bmp-flood"
	GlassMixed = "glass-mixed"
)

// Workloads lists every workload in the order a full run executes them.
var Workloads = []string{RISPaced, MRTReplay, BMPFlood, GlassMixed}

// Load-model constants.
const (
	// PacedRate is the open-loop feed rate of ris-paced, in events per
	// second; MRTRate, BMPRate (over both sessions) and GlassRate are the
	// other workloads'. Each keeps the daemon, which has one CPU to itself
	// (harness.Isolate), about a third busy: enough work per
	// second for a steady CPU figure, and enough slack that a burst of CPU
	// time withheld by the host delays a few events instead of starting a
	// backlog that lasts the run.
	PacedRate = 20000
	MRTRate   = 100000
	BMPRate   = 10000
	GlassRate = 6000
	// FastTick is the open-loop emission schedule.
	FastTick = time.Millisecond
	// ProbeEvery spaces the probe incidents.
	ProbeEvery = 10 * time.Millisecond

	mrtGroup = 16 // NLRI per UPDATE on mrt-replay
	// mrtGroupsPerSecond advances the one-second MRT clock: few enough
	// groups share a second that no withdrawal identity repeats within it.
	mrtGroupsPerSecond = 8192
	// blockEventsPerSecond sizes a bulk stream's block from the run length:
	// small enough that the first pass — which carries the embedded
	// probes — finishes well inside the run on a daemon several times
	// slower than today's, and that replaying it through the oracle costs
	// about as much as the open-loop workloads' inputs do.
	blockEventsPerSecond = 16000
	maxBlockEvents       = 1 << 20
	bmpDupShare          = 4 // one group in four is mirrored on both BMP sessions
	mrtEmbeddedProbes    = 64
	tenantsHosted        = 100
	glassRIBv4           = 100000
	glassRIBv6           = 20000
	glassHotKeys         = 64
	glassLookupKeys      = 4096
)

// Tick is what one emission of the open-loop schedule writes on the RIS
// connection.
type Tick struct {
	// At is when the tick is due, counted from the start of its phase.
	At     time.Duration
	Data   []byte
	Events int
	// Probe indexes Inputs.Probes, or is -1 when the tick carries none.
	Probe int
}

// Stream is one bulk byte stream: a pre-encoded block the load generator
// writes, pass after pass, at Rate events per second, a chunk per
// millisecond.
type Stream struct {
	MRT      bool // BGP4MP records; otherwise BMP messages
	Rate     int
	Greeting []byte // sent once per connection, before the block
	Block    []byte
	// Chunks are the end offsets of the write units, message-aligned;
	// ChunkEvents and ChunkFiltered count the events in each and how many
	// of those the daemon's client-side filter discards.
	Chunks        []int
	ChunkEvents   []int
	ChunkFiltered []int
	// PassSeconds is how far ShiftTimes moves each further pass.
	PassSeconds uint32
	// Embedded are the incidents the block's first pass opens.
	Embedded []Expect
}

// Lookup is one /v1/lookup query and its answer.
type Lookup struct {
	Query  string
	Origin uint32
}

// Inputs is everything one run feeds the daemon.
type Inputs struct {
	Workload string
	Seed     int64
	World    *World

	// Warm opens the echo incidents (and, on ris-paced, warms the feed at
	// the measured rate); WarmExpect lists what it must raise.
	Warm       []Tick
	WarmExpect []Expect
	// Ticks is the measured open-loop schedule on the RIS connection, one
	// tick per TickEvery.
	Ticks     []Tick
	TickEvery time.Duration
	Probes    []Expect

	// Streams are the bulk feeds (one for mrt-replay, two for bmp-flood).
	Streams []*Stream
	// Evlog is glass-mixed's archive: Seconds of events paced at
	// GlassRate on the recorded clock.
	Evlog       []byte
	EvlogEvents int

	// glass-mixed's route-intelligence files and read load.
	RIB, ROAs, ASNames []byte
	HotLookups         []Lookup
	ColdLookups        []Lookup

	// Mix counts the generated events per class (one pass of each block).
	Mix [NumClasses]int
	// Hash is the SHA-256 of every generated byte, in a fixed order.
	Hash string
}

// Expects lists every incident-opening announcement of the run: warm-up
// openers, timed probes, and the probes embedded in bulk streams.
func (in *Inputs) Expects() [][]Expect {
	out := [][]Expect{in.WarmExpect, in.Probes}
	for _, s := range in.Streams {
		out = append(out, s.Embedded)
	}
	return out
}

// MixShares formats the generated events' class shares (probes and
// openers aside), for the report.
func (in *Inputs) MixShares() string {
	total := 0
	for c := BenignExact; c < Probe; c++ {
		total += in.Mix[c]
	}
	var b strings.Builder
	for c := BenignExact; c < Probe; c++ {
		fmt.Fprintf(&b, " %s %.1f%%", c, 100*float64(in.Mix[c])/float64(total))
	}
	return b.String()[1:]
}

// Build generates the inputs of one run. observe, when non-nil, sees
// every group once, in generation order; the group is only valid during
// the call.
func Build(workload string, seed int64, seconds int, observe func(*Group)) (*Inputs, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("gen: run length %d s", seconds)
	}
	if observe == nil {
		observe = func(*Group) {}
	}
	b := &builder{
		in:      &Inputs{Workload: workload, Seed: seed, World: NewWorld(workload)},
		observe: observe,
		seconds: seconds,
	}
	b.mix = newMixer(b.in.World, seed)
	switch workload {
	case RISPaced:
		b.risPaced()
	case MRTReplay:
		b.probeChannel()
		b.mrtReplay()
	case BMPFlood:
		b.probeChannel()
		b.bmpFlood()
	case GlassMixed:
		b.probeChannel()
		b.glassMixed()
	default:
		return nil, fmt.Errorf("gen: unknown workload %q", workload)
	}
	b.in.Mix = b.mix.Events
	b.in.Hash = b.hash()
	return b.in, nil
}

type builder struct {
	in      *Inputs
	mix     *mixer
	observe func(*Group)
	seconds int
}

// emitRIS stamps g, shows it to the observer and appends its frames.
func (b *builder) emitRIS(dst []byte, g *Group, seen time.Duration) []byte {
	g.Seen = seen
	b.observe(g)
	return AppendRISFrames(dst, g)
}

// openerTick is the warm-up emission that opens every echo incident.
func (b *builder) openerTick(at time.Duration) Tick {
	groups, expects := b.mix.openers()
	b.in.WarmExpect = expects
	t := Tick{Probe: -1}
	for i := range groups {
		t.Data = b.emitRIS(t.Data, &groups[i], at+time.Duration(i)*time.Microsecond)
		t.Events++
	}
	return t
}

// risPaced: one RIS connection carries the whole mix at PacedRate on the
// 1 ms schedule, a probe every 10 ms.
func (b *builder) risPaced() {
	perTick := PacedRate / int(time.Second/FastTick)
	warmTicks := 1000
	if limit := 200 * b.seconds; warmTicks > limit {
		warmTicks = limit
	}
	clock := eventBase
	tick := func(i int, probe bool) Tick {
		t := Tick{At: time.Duration(i) * FastTick, Probe: -1}
		for j := 0; j < perTick; j++ {
			g := b.mix.next(1)
			t.Data = b.emitRIS(t.Data, &g, clock+time.Duration(j)*time.Microsecond)
		}
		t.Events = perTick
		if probe {
			g, e := b.mix.probe(b.mix.randomVP())
			t.Data = b.emitRIS(t.Data, &g, clock+time.Duration(perTick)*time.Microsecond)
			t.Events++
			t.Probe = len(b.in.Probes)
			b.in.Probes = append(b.in.Probes, e)
		}
		clock += FastTick
		return t
	}
	b.in.Warm = append(b.in.Warm, b.openerTick(clock))
	clock += FastTick
	for i := 1; i < warmTicks; i++ {
		b.in.Warm = append(b.in.Warm, tick(i, false))
	}
	every := int(ProbeEvery / FastTick)
	n := b.seconds * int(time.Second/FastTick)
	b.in.TickEvery = FastTick
	for i := 0; i < n; i++ {
		b.in.Ticks = append(b.in.Ticks, tick(i, i%every == every/2))
	}
}

// probeChannel is the RIS connection of the workloads whose bulk feed is
// another transport: it opens the echo incidents, then carries one probe
// per 10 ms, so detection and mitigation latency are measured the same
// way under every load. Each probe is due at a seeded random instant of
// its 10 ms slot: the bulk feed runs on a millisecond grid of its own, and
// probes on a grid would meet it at one phase for a whole run — a
// different one each run — so that the run's median latency would say
// where the two grids happened to lie.
func (b *builder) probeChannel() {
	jitter := rand.New(rand.NewSource(b.in.Seed ^ 0x70726f6265))
	clock := eventBase
	b.in.Warm = []Tick{b.openerTick(clock)}
	clock += time.Second
	b.in.TickEvery = ProbeEvery
	n := b.seconds * int(time.Second/ProbeEvery)
	for i := 0; i < n; i++ {
		g, e := b.mix.probe(b.mix.randomVP())
		t := Tick{Events: 1, Probe: len(b.in.Probes)}
		t.At = time.Duration(i)*ProbeEvery + time.Duration(jitter.Int63n(int64(ProbeEvery)))
		t.Data = b.emitRIS(nil, &g, clock)
		b.in.Probes = append(b.in.Probes, e)
		b.in.Ticks = append(b.in.Ticks, t)
		clock += ProbeEvery
	}
}

// blockEvents is the size of one pass of a bulk stream.
func (b *builder) blockEvents() int {
	n := blockEventsPerSecond * b.seconds
	if n > maxBlockEvents {
		n = maxBlockEvents
	}
	return n
}

// cut closes the stream's current write chunk when it holds a
// millisecond's events, or unconditionally at the end of the block.
func (s *Stream) cut(events, filtered *int, final bool) {
	start := 0
	if len(s.Chunks) > 0 {
		start = s.Chunks[len(s.Chunks)-1]
	}
	full := *events >= s.Rate/int(time.Second/FastTick)
	if len(s.Block) == start || !(final || full) {
		return
	}
	s.Chunks = append(s.Chunks, len(s.Block))
	s.ChunkEvents = append(s.ChunkEvents, *events)
	s.ChunkFiltered = append(s.ChunkFiltered, *filtered)
	*events, *filtered = 0, 0
}

// mrtReplay: one BGP4MP stream, 16 NLRI per UPDATE, at MRTRate, with a
// handful of probe incidents embedded in the first pass (their alerts are
// counted; the probe channel's are timed).
func (b *builder) mrtReplay() {
	s := &Stream{MRT: true, Rate: MRTRate}
	groups := b.blockEvents() / mrtGroup
	probeEvery := groups / (mrtEmbeddedProbes + 1)
	var events, filtered int
	for i := 0; i < groups; i++ {
		seen := eventBase + time.Duration(i/mrtGroupsPerSecond)*time.Second
		if probeEvery > 0 && i%probeEvery == probeEvery-1 && len(s.Embedded) < mrtEmbeddedProbes {
			g, e := b.mix.probe(b.mix.randomVP())
			g.Seen = seen
			b.observe(&g)
			s.Block = AppendMRT(s.Block, &g)
			s.Embedded = append(s.Embedded, e)
			events++
		}
		g := b.mix.next(mrtGroup)
		g.Seen = seen
		b.observe(&g)
		s.Block = AppendMRT(s.Block, &g)
		events += len(g.Prefixes)
		s.cut(&events, &filtered, false)
	}
	s.cut(&events, &filtered, true)
	s.PassSeconds = uint32(groups/mrtGroupsPerSecond) + 1
	b.in.Streams = []*Stream{s}
}

// bmpFlood: two BMP sessions, one NLRI per UPDATE, BMPRate between them.
// One group in four is mirrored on both sessions with the same per-peer
// timestamp — the copy the cross-source dedup exists to absorb. The block
// opens no incidents: live sources may shed, so nothing that must alert
// depends on them; the probe channel carries the incidents.
func (b *builder) bmpFlood() {
	vps := b.in.World.VPs
	streams := []*Stream{
		{Rate: BMPRate / 2, Greeting: BMPGreeting("bench-rtr-a", vps)},
		{Rate: BMPRate / 2, Greeting: BMPGreeting("bench-rtr-b", vps)},
	}
	var events, filtered [2]int
	put := func(si int, g *Group) {
		s := streams[si]
		b.observe(g)
		s.Block = AppendBMP(s.Block, g)
		events[si] += len(g.Prefixes)
		if g.Class == Unrelated {
			filtered[si] += len(g.Prefixes)
		}
		s.cut(&events[si], &filtered[si], false)
	}
	perSession := b.blockEvents() / 2
	for i := 0; i < perSession; i++ {
		seen := eventBase + time.Duration(i)*2*time.Microsecond
		ga := b.mix.next(1)
		ga.Seen = seen
		put(0, &ga)
		gb := ga // the mirror: session B repeats what session A just sent
		if i%bmpDupShare != 0 {
			gb = b.mix.next(1)
			gb.Seen = seen
		} else {
			b.mix.Events[gb.Class] += len(gb.Prefixes)
		}
		put(1, &gb)
	}
	for si, s := range streams {
		s.cut(&events[si], &filtered[si], true)
		s.PassSeconds = uint32(time.Duration(perSession)*2*time.Microsecond/time.Second) + 1
	}
	b.in.Streams = streams
}
