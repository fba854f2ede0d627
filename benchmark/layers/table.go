package layers

import (
	"fmt"
	"io"

	"artemis/benchmark/gen"
)

// Row is one line of the layer table: a layer on the workload's path,
// what an event costs there, and how much of the daemon's CPU per
// offered event that explains.
type Row struct {
	Layer string
	// NsPerEvent is the layer's own cost per event that reaches it.
	NsPerEvent float64
	// Reach is the share of offered events that reach the layer: 1 before
	// a source's queue, the delivered fraction after it.
	Reach float64
	// Share is NsPerEvent*Reach over the daemon's CPU per offered event.
	Share float64
}

// Report is the outcome of one traced pass.
type Report struct {
	Workload string
	Metrics  map[string]float64
	Rows     []Row
	tr       *tracer
}

// report builds the layer table. A workload's path is its decoder, the
// rest of its transport's Recv, the supervisor, the pipeline, and — on
// glass-mixed — the tees behind it. Everything else was measured too (an
// API change must not rot a probe unnoticed) but is off this workload's
// path and appears only among the metrics.
func (p *pass) report(opt Options) *Report {
	m := p.metrics
	reach := opt.DeliveredFrac
	if reach <= 0 || reach > 1 {
		reach = 1
	}
	var rows []Row
	add := func(layer string, ns, reach float64) {
		// A row that is the difference of two probes can come out below
		// zero when the two are within noise of each other; it costs nothing
		// measurable then.
		rows = append(rows, Row{Layer: layer, NsPerEvent: max(ns, 0), Reach: reach})
	}
	recv := m["ingest.recv_ns_per_event"]
	perGroup := float64(len(p.groups)) / float64(len(p.evs)) // decoder figures are per message
	switch p.in.Workload {
	case gen.RISPaced:
		// The RIS client's figure includes the websocket read under it.
		ws := m["wsock.read_ns_per_msg"]
		add("wsock (frame read)", ws, 1)
		add("ris (JSON decode, client)", m["ris.decode_ns_per_event"]-ws, 1)
		add("ingest (Recv coalescing)", recv-m["ris.decode_ns_per_event"], 1)
	case gen.MRTReplay:
		dec := m["mrt.decode_ns_per_record"] * perGroup
		add("mrt+bgp (record decode)", dec, 1)
		add("ingest (Recv, file read)", recv-dec, 1)
	case gen.BMPFlood:
		dec := m["bmp.decode_ns_per_msg"] * perGroup
		add("bmp+bgp (message decode)", dec, 1)
		add("feedtypes (filter match)", m["feedtypes.filter_ns_per_event"], 1)
		add("ingest (Recv, socket read)", recv-dec-m["feedtypes.filter_ns_per_event"], 1)
	case gen.GlassMixed:
		dec := m["eventlog.decode_ns_per_event"]
		add("eventlog (line decode)", dec, 1)
		add("ingest (Recv, file read)", recv-dec, 1)
	}
	add("ingest (supervise: copy, ring, dedup)", m["ingest.supervise_ns_per_event"], 1)
	add("core (submit: route, classify, sink, monitor)", m["core.submit_ns_per_event"], reach)
	if p.in.Workload == gen.GlassMixed {
		add("rib (apply)", m["rib.apply_ns_per_event"], reach)
		add("eventlog (recorder)", m["recorder.record_ns_per_event"], reach)
	}
	coverage := 0.0
	for i := range rows {
		if opt.CPUNsPerEvent > 0 {
			rows[i].Share = rows[i].NsPerEvent * rows[i].Reach / opt.CPUNsPerEvent
		}
		coverage += rows[i].Share
	}
	m["layers.coverage"] = coverage
	return &Report{Workload: p.in.Workload, Metrics: m, Rows: rows, tr: p.tr}
}

// PrintTable writes the layer table.
func (r *Report) PrintTable(w io.Writer) {
	fmt.Fprintf(w, "   -- where the daemon's CPU per offered event goes on %s (layers measured in isolation) --\n", r.Workload)
	fmt.Fprintf(w, "   %-48s %12s %7s %8s\n", "layer", "ns/event", "reach", "share")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "   %-48s %12.1f %6.0f%% %7.1f%%\n", row.Layer, row.NsPerEvent, row.Reach*100, row.Share*100)
	}
	fmt.Fprintf(w, "   %-48s %12s %7s %7.1f%%   (the rest is what isolation does not show: wake-ups, scheduling, GC, the control plane)\n",
		"sum of the parts", "", "", r.Metrics["layers.coverage"]*100)
}

// WriteTrace writes the pass's spans to path.
func (r *Report) WriteTrace(path string) error { return r.tr.writeFile(path, r.Workload) }
