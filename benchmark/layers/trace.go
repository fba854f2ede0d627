// Package layers is artemis-bench's traced pass: the same seeded input
// the end-to-end run fed the daemon is pushed through each layer's public
// entry points in isolation, in this process, after the end-to-end run
// has finished — the two never overlap. Every timed stretch is a span
// (name, parent, start, end, events) kept in memory and written out at
// the end; a layer's cost is its spans' self time — the span less the
// part its children cover — per event.
//
// Nothing inside the layers is instrumented: the spans are recorded here,
// around the calls. A call that costs tens of nanoseconds is not wrapped
// on its own — reading the clock twice would cost more than the call — so
// a span covers one pass over the sample and carries the number of events
// it processed.
package layers

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"time"

	"artemis/benchmark/gen"
	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
)

// sampleEvents is how much of a run's bulk event sequence the traced pass
// keeps: enough that one pass over it outlasts timer resolution by three
// orders of magnitude, small enough to encode five ways in memory.
const sampleEvents = 1 << 15

// Sample is the head of a run's generated event sequence.
type Sample struct {
	Groups []gen.Group
	events int
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// Observe keeps a deep copy of g while the sample is short of
// sampleEvents. Probes and warm-up openers are left out: the sample is
// the steady mix, the thing each layer spends its time on.
func (s *Sample) Observe(g *gen.Group) {
	if s.events >= sampleEvents || g.Class >= gen.Probe {
		return
	}
	cp := *g
	cp.Path = slices.Clone(g.Path)
	cp.Prefixes = slices.Clone(g.Prefixes)
	s.Groups = append(s.Groups, cp)
	s.events += len(g.Prefixes)
}

// events flattens the sample into feed events, one per prefix, paths
// shared within a group as a decoder would leave them.
func (s *Sample) feedEvents() []feedtypes.Event {
	out := make([]feedtypes.Event, 0, s.events)
	for i := range s.Groups {
		g := &s.Groups[i]
		ev := feedtypes.Event{
			Source: "bench", Collector: "layers",
			VantagePoint: bgp.ASN(g.VP), SeenAt: g.Seen, EmittedAt: g.Seen,
		}
		if g.Withdraw {
			ev.Kind = feedtypes.Withdraw
		} else {
			ev.Path = make([]bgp.ASN, len(g.Path))
			for j, as := range g.Path {
				ev.Path[j] = bgp.ASN(as)
			}
		}
		for _, p := range g.Prefixes {
			ev.Prefix = p
			out = append(out, ev)
		}
	}
	return out
}

// Span is one timed stretch of the traced pass.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Events int    `json:"events"`
}

// tracer collects spans in memory.
type tracer struct {
	t0    time.Time
	spans []Span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id, events int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Events = events
}

// self is span id's duration less what its direct children cover.
func (t *tracer) self(id int) time.Duration {
	d := t.spans[id].End - t.spans[id].Start
	for _, s := range t.spans {
		if s.Parent == id {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path, workload string) error {
	raw, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// cost is what one probe measured.
type cost struct {
	nsPerEvent     float64
	allocsPerEvent float64
}

// measure times fn, one span per call, until the probe's budget is spent
// (at least twice: the first call warms pools and caches and is left out
// of the figure unless it is the only one). fn processes events events
// and may open child spans under the span it is given.
func (p *pass) measure(name string, events int, fn func(span int)) cost {
	probe := p.tr.begin(name, p.root)
	defer func() { p.tr.end(probe, 0) }()
	var ms runtime.MemStats
	var rounds []int
	var mallocs uint64
	deadline := time.Now().Add(p.budget)
	for len(rounds) < 2 || time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		id := p.tr.begin(name+"/round", probe)
		fn(id)
		p.tr.end(id, events)
		runtime.ReadMemStats(&ms)
		if len(rounds) > 0 {
			mallocs += ms.Mallocs - before
		}
		rounds = append(rounds, id)
		if len(rounds) >= 64 {
			break
		}
	}
	var self time.Duration
	for _, id := range rounds[1:] {
		self += p.tr.self(id)
	}
	n := float64(events * (len(rounds) - 1))
	return cost{nsPerEvent: float64(self) / n, allocsPerEvent: float64(mallocs) / n}
}

// once times a single call (set-up work that is only done once per
// process, such as loading a table) and returns its duration.
func (p *pass) once(name string, events int, fn func()) time.Duration {
	id := p.tr.begin(name, p.root)
	fn()
	p.tr.end(id, events)
	return p.tr.self(id)
}
