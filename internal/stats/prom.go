package stats

import (
	"fmt"
	"io"
)

// This file renders snapshots in the Prometheus text exposition shape
// ("name{label="v"} value" lines) so cmd/artemisd can serve a /metrics
// endpoint without pulling in a client library. Only the subset of the
// format the snapshots need is implemented: untyped samples and classic
// cumulative histograms.

// WriteProm renders the pipeline's counters.
func (s PipelineSnapshot) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "artemis_pipeline_batches_submitted_total %d\n", s.Submitted)
	fmt.Fprintf(w, "artemis_pipeline_batches_applied_total %d\n", s.Applied)
	fmt.Fprintf(w, "artemis_pipeline_events_total %d\n", s.Events)
	fmt.Fprintf(w, "artemis_pipeline_reconfigs_total %d\n", s.Reconfigs)
	fmt.Fprintf(w, "artemis_pipeline_inflight_batches %d\n", s.Submitted-s.Applied)
	s.SinkApply.writeProm(w, "artemis_pipeline_sink_apply_seconds", "")
	for _, sh := range s.Shards {
		l := fmt.Sprintf(`shard="%d"`, sh.Shard)
		fmt.Fprintf(w, "artemis_pipeline_shard_events_total{%s} %d\n", l, sh.Events)
		fmt.Fprintf(w, "artemis_pipeline_shard_batches_total{%s} %d\n", l, sh.Batches)
		fmt.Fprintf(w, "artemis_pipeline_shard_queue_depth{%s} %d\n", l, sh.QueueLen)
		fmt.Fprintf(w, "artemis_pipeline_shard_queue_capacity{%s} %d\n", l, sh.QueueCap)
		sh.Service.writeProm(w, "artemis_pipeline_shard_service_seconds", l)
	}
}

// ingestStates are the lifecycle states a supervised source can be in,
// rendered one-hot so dashboards can alert on "any source not healthy".
var ingestStates = []string{"connecting", "healthy", "degraded", "dead", "finished"}

// WriteProm renders the ingest supervisor's counters.
func (s IngestSnapshot) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "artemis_ingest_sources %d\n", len(s.Sources))
	if s.DedupSize >= 0 {
		fmt.Fprintf(w, "artemis_ingest_dedup_size %d\n", s.DedupSize)
	}
	for _, src := range s.Sources {
		l := fmt.Sprintf(`source="%s"`, src.Name)
		fmt.Fprintf(w, "artemis_ingest_source_events_total{%s} %d\n", l, src.Events)
		fmt.Fprintf(w, "artemis_ingest_source_batches_total{%s} %d\n", l, src.Batches)
		fmt.Fprintf(w, "artemis_ingest_source_dedup_hits_total{%s} %d\n", l, src.DedupHits)
		fmt.Fprintf(w, "artemis_ingest_source_dropped_events_total{%s} %d\n", l, src.Drops)
		fmt.Fprintf(w, "artemis_ingest_source_rate_shed_total{%s} %d\n", l, src.RateShed)
		fmt.Fprintf(w, "artemis_ingest_source_reconnects_total{%s} %d\n", l, src.Reconnects)
		fmt.Fprintf(w, "artemis_ingest_source_queue_depth{%s} %d\n", l, src.QueueLen)
		fmt.Fprintf(w, "artemis_ingest_source_queue_capacity{%s} %d\n", l, src.QueueCap)
		known := false
		for _, st := range ingestStates {
			v := 0
			if src.State == st {
				v, known = 1, true
			}
			fmt.Fprintf(w, "artemis_ingest_source_state{%s} %d\n", joinLabels(l, fmt.Sprintf(`state="%s"`, st)), v)
		}
		if !known {
			fmt.Fprintf(w, "artemis_ingest_source_state{%s} 1\n", joinLabels(l, fmt.Sprintf(`state="%s"`, src.State)))
		}
		src.Latency.writeProm(w, "artemis_ingest_source_delivery_latency_seconds", l)
	}
}

// WriteProm renders the mitigation queue's counters.
func (s MitigationQueueSnapshot) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "artemis_mitigation_enqueued_total %d\n", s.Enqueued)
	fmt.Fprintf(w, "artemis_mitigation_handled_total %d\n", s.Handled)
	fmt.Fprintf(w, "artemis_mitigation_dropped_total %d\n", s.Dropped)
	fmt.Fprintf(w, "artemis_mitigation_blocked_total %d\n", s.Blocked)
	fmt.Fprintf(w, "artemis_mitigation_failures_total %d\n", s.Failures)
	fmt.Fprintf(w, "artemis_mitigation_queue_depth %d\n", s.QueueLen)
	fmt.Fprintf(w, "artemis_mitigation_queue_capacity %d\n", s.QueueCap)
	s.Wait.writeProm(w, "artemis_mitigation_wait_seconds", "")
	s.Handle.writeProm(w, "artemis_mitigation_handle_seconds", "")
}

// writeProm renders one histogram as cumulative _bucket/_sum/_count
// samples, optionally merged with extra labels ("k=\"v\"" form, no braces).
func (s HistogramSnapshot) writeProm(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = fmt.Sprintf("%g", s.Bounds[i].Seconds())
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, joinLabels(labels, fmt.Sprintf(`le="%s"`, le)), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced(labels), s.Sum.Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), s.Count)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
