package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"artemis/benchmark/gen"
)

// window is the measured phase between two consecutive samples, and what
// was observed in it.
type window struct {
	from, to time.Time
	seconds  float64
	steal    float64 // share of the machine's CPU ticks the hypervisor withheld
	// offered and passed are the events sent and, of those, the ones that
	// pass the daemon's client-side filter; delivered and shed what the
	// daemon did with them; cpu its CPU seconds.
	offered, passed, delivered, shed, cpu float64
	// Latencies of the probes and lookups due in the window, and how late
	// the schedule's ticks in it ran, in seconds.
	detect, total, leg, lookups, late []float64
}

// windows cuts the measured phase at the sample boundaries. pacedByDaemon
// adds, per second, the events the daemon's own replay source reads on
// its recorded clock (glass-mixed) — load the generator offers without
// writing it.
func windows(samples []sample, pacedByDaemon float64) []*window {
	var out []*window
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		w := &window{from: a.at, to: b.at, seconds: b.at.Sub(a.at).Seconds()}
		if w.seconds <= 0 {
			continue
		}
		if b.ticks > a.ticks {
			w.steal = (b.steal - a.steal) / (b.ticks - a.ticks)
		}
		w.offered = float64(b.offered-a.offered) + pacedByDaemon*w.seconds
		w.passed = w.offered - float64(b.dropped-a.dropped)
		w.delivered = float64(b.delivered - a.delivered)
		w.shed = float64(b.shed - a.shed)
		w.cpu = b.cpu - a.cpu
		out = append(out, w)
	}
	return out
}

// quietSteal is the share of stolen CPU below which a window counts as
// undisturbed by the host.
const quietSteal = 0.02

// quiet returns the windows in which the hypervisor withheld less than
// quietSteal of this machine's CPU time — or, when that is fewer than
// half of them, the half it disturbed least. On a shared host, stolen
// time comes in bursts that inflate every wall-clock figure; the run
// reports what the daemon did in the windows least affected.
func quiet(ws []*window) []*window {
	var out []*window
	for _, w := range ws {
		if w.steal < quietSteal {
			out = append(out, w)
		}
	}
	half := (len(ws) + 1) / 2
	if len(out) >= half {
		return out
	}
	out = append([]*window(nil), ws...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].steal < out[b].steal })
	return out[:half]
}

// windowOf returns the window t falls in, or nil.
func windowOf(ws []*window, t time.Time) *window {
	for _, w := range ws {
		if !t.Before(w.from) && t.Before(w.to) {
			return w
		}
	}
	return nil
}

// score checks the run's outputs and computes its metrics. base and end
// are the settled snapshots around the measured phase; serr is why the
// final settle gave up, if it did.
func (r *run) score(ctx context.Context, l ledger, base, end snapshot, serr error, ld *load, wantAlerts int) (*Result, error) {
	in := r.in
	res := &Result{EndToEnd: map[string]float64{}, Boundary: map[string]float64{}, Samples: map[string]int{}}
	switch {
	case !end.settled:
		for _, s := range end.health.Sources {
			res.Wrong = append(res.Wrong, fmt.Sprintf(
				"conservation: source %s was sent %d events; delivered %d + dedup %d + dropped %d + rate-shed %d + filtered %d",
				s.Name, l.sent[s.Name], s.Events, s.DedupHits, s.Drops, s.RateShed, l.filtered[s.Name]))
		}
		end.at = time.Now()
		end.metrics = promSamples{}
	case serr != nil:
		res.Wrong = append(res.Wrong, fmt.Sprintf("%v: %d of %d alerts, %d of %d controller POSTs",
			serr, r.alertCount(), wantAlerts, r.ctl.count(), wantAlerts))
	}

	// Whole-run counts: the final snapshot less the one taken after warm-up.
	before := map[string]sourceStatus{}
	for _, s := range base.health.Sources {
		before[s.Name] = s
	}
	var offered, delivered, dedup, shed, passed float64
	for _, s := range end.health.Sources {
		b := before[s.Name]
		delivered += float64(s.Events - b.Events)
		dedup += float64(s.DedupHits - b.DedupHits)
		shed += float64(s.Drops + s.RateShed - b.Drops - b.RateShed)
		sent := l.sent[s.Name]
		if s.Name == "ris" {
			sent -= int(b.Events + b.DedupHits + b.Drops + b.RateShed) // warm-up
		}
		offered += float64(sent)
		passed += float64(sent - l.filtered[s.Name])
		if s.Reconnects > 0 {
			res.Wrong = append(res.Wrong, fmt.Sprintf("source %s reconnected %d times", s.Name, s.Reconnects))
		}
	}
	final := end.metrics
	recDropped := final["artemis_record_dropped_total"]

	// Alerts against the oracle, as sets.
	got, err := r.api.alerts(ctx)
	if err != nil {
		return nil, err
	}
	seen := make(map[gen.Incident]int, len(got))
	for _, a := range got {
		seen[a.incident()]++
	}
	var missing, unexpected, duplicate int
	for inc := range r.want {
		if seen[inc] == 0 {
			missing++
		}
	}
	for inc, n := range seen {
		if !r.want[inc] {
			unexpected++
		}
		duplicate += n - 1
	}
	if missing+unexpected+duplicate > 0 {
		res.Wrong = append(res.Wrong, fmt.Sprintf("oracle: %d incidents missing, %d unexpected, %d duplicate (of %d expected)",
			missing, unexpected, duplicate, len(r.want)))
	}

	// When each incident alerted (the stream's frames) and when the
	// controller had answered its announcement (the controller's log).
	r.mu.Lock()
	stream := append([]observed(nil), r.alerts...)
	r.mu.Unlock()
	alertAt := make(map[gen.Incident]time.Time, len(stream))
	for _, o := range stream {
		if _, dup := alertAt[o.inc]; dup {
			duplicate++
			continue
		}
		alertAt[o.inc] = o.at
	}
	posts := map[string][]time.Time{}
	for _, p := range r.ctl.all() {
		posts[p.prefix] = append(posts[p.prefix], p.at)
	}
	// Pair POSTs with incidents per announced prefix, both in time order:
	// the daemon announces a prefix once per incident that needs it.
	waiting := map[string][]observed{}
	for _, es := range r.in.Expects() {
		for _, e := range es {
			for _, inc := range e.Incidents {
				if at, ok := alertAt[inc]; ok {
					waiting[e.Announce] = append(waiting[e.Announce], observed{inc, at})
				}
			}
		}
	}
	postAt := make(map[gen.Incident]time.Time, len(alertAt))
	var missingPosts int
	for pfx, alerts := range waiting {
		sort.Slice(alerts, func(i, j int) bool { return alerts[i].at.Before(alerts[j].at) })
		ps := posts[pfx]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Before(ps[j]) })
		for i, a := range alerts {
			if i < len(ps) {
				postAt[a.inc] = ps[i]
			} else {
				missingPosts++
			}
		}
	}

	// Sort every observation into its window.
	paced := 0.0
	if in.Evlog != nil {
		paced = gen.GlassRate
	}
	all := windows(ld.samples, paced)
	var lateAlerts, latePosts, lostAlerts int
	for i, e := range in.Probes {
		for _, inc := range e.Incidents {
			at, ok := alertAt[inc]
			if !ok {
				lostAlerts++
				continue
			}
			if at.Sub(ld.due[i]) > alertLimit {
				lateAlerts++
			}
			post, posted := postAt[inc]
			if posted && post.Sub(at) > postLimit {
				latePosts++
			}
			w := windowOf(all, ld.due[i])
			if w == nil {
				continue
			}
			w.detect = append(w.detect, at.Sub(ld.due[i]).Seconds())
			if posted {
				w.total = append(w.total, post.Sub(ld.due[i]).Seconds())
				w.leg = append(w.leg, post.Sub(at).Seconds())
			}
		}
	}
	for _, s := range in.Streams {
		for _, e := range s.Embedded {
			for _, inc := range e.Incidents {
				if _, ok := alertAt[inc]; !ok {
					lostAlerts++
				}
			}
		}
	}
	for i, at := range ld.lateAt {
		if w := windowOf(all, at); w != nil {
			w.late = append(w.late, ld.late[i])
		}
	}
	lk := &ld.lookups
	for i, at := range lk.at {
		if w := windowOf(all, at); w != nil {
			w.lookups = append(w.lookups, lk.seconds[i])
		}
	}
	var phaseSeconds, phaseCPU, phaseOffered, phaseDelivered float64
	for _, w := range all {
		phaseSeconds += w.seconds
		phaseCPU += w.cpu
		phaseOffered += w.offered
		phaseDelivered += w.delivered
	}
	kept := quiet(all)
	var detect, total, leg, lookups, late []float64 // pooled over the kept windows
	var keptSeconds, keptShed, keptPassed, keptSteal float64
	for _, w := range kept {
		detect = append(detect, w.detect...)
		total = append(total, w.total...)
		leg = append(leg, w.leg...)
		lookups = append(lookups, w.lookups...)
		late = append(late, w.late...)
		keptSeconds += w.seconds
		keptShed += w.shed
		keptPassed += w.passed
		keptSteal += w.steal / float64(len(kept))
	}
	for _, v := range [][]float64{detect, total, leg, lookups, late} {
		sort.Float64s(v)
	}
	if len(detect) == 0 || len(total) == 0 {
		return nil, fmt.Errorf("no probe in the run's quiet windows produced an alert and a mitigation; nothing to time")
	}

	// Failed operations, over the whole run.
	res.Attempted = int(offered) + 2*wantAlerts + lk.issued
	res.Failed = lostAlerts + missingPosts + unexpected + duplicate + lk.failed + int(recDropped)
	if in.Workload != gen.BMPFlood {
		res.Failed += int(shed) // only bmp-flood is meant to shed
	}
	if r.opt.Strict {
		res.Failed += lateAlerts + latePosts
		p50, p99 := quantile(late, 0.5), quantile(late, 0.99)
		if in.TickEvery == gen.FastTick && (p50 > lateLimitP50.Seconds() || p99 > lateLimitP99.Seconds()) {
			res.Invalid = append(res.Invalid, fmt.Sprintf("late generator: the 1 ms schedule ran %.3f ms late at the median and %.3f ms at p99 (limits %v and %v)",
				p50*1e3, p99*1e3, lateLimitP50, lateLimitP99))
		}
	}
	if res.Failed > 0 {
		res.Wrong = append(res.Wrong, fmt.Sprintf(
			"%d failed operations: %d alerts lost, %d late; %d POSTs missing, %d late; %d unexpected, %d duplicate alerts; %d lookups failed; %.0f events shed, %.0f not archived",
			res.Failed, lostAlerts, lateAlerts, missingPosts, latePosts, unexpected, duplicate, lk.failed, shed, recDropped))
	}

	rss, err := r.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	e := res.EndToEnd
	e["events_per_s"] = phaseDelivered / phaseSeconds
	e["cpu_us_per_event"] = phaseCPU * 1e6 / phaseOffered
	e["detect_p50_ms"] = median(detect) * 1e3
	e["mitigate_p50_ms"] = median(total) * 1e3
	e["peak_rss_mb"] = rss
	res.Samples["detect_p50_ms"] = len(detect)
	res.Samples["mitigate_p50_ms"] = len(total)

	b := res.Boundary
	b["shed_frac"] = (shed + recDropped) / passed
	b["delivered_frac"] = 1 - (keptShed+recDropped)/keptPassed // over the kept windows; weighs the layer table
	b["ingest.received"] = offered
	b["ingest.delivered"] = delivered
	b["ingest.dedup_hit_frac"] = dedup / passed
	b["ingest.shed"] = shed
	b["ingest.reconnects"] = final.sum("artemis_ingest_source_reconnects_total")
	batches := final.sum("artemis_ingest_source_batches_total")
	baseBatches := base.metrics.sum("artemis_ingest_source_batches_total")
	b["ingest.recv_events_per_batch"] = 0
	if batches > baseBatches {
		b["ingest.recv_events_per_batch"] = delivered / (batches - baseBatches)
	}
	b["record.dropped"] = recDropped
	b["mitq.blocked"] = final["artemis_mitigation_blocked_total"]
	for name, family := range map[string]string{
		"core.shard_service_p50_us": "artemis_pipeline_shard_service_seconds",
		"core.sink_apply_p50_us":    "artemis_pipeline_sink_apply_seconds",
		"mitq.wait_p50_us":          "artemis_mitigation_wait_seconds",
		"mitq.handle_p50_us":        "artemis_mitigation_handle_seconds",
	} {
		v, _ := final.quantile(family, 0.5)
		b[name] = v * 1e6
	}
	shardMax := final.max("artemis_pipeline_shard_events_total")
	shardSum := final.sum("artemis_pipeline_shard_events_total")
	b["core.shard_skew"] = 0
	if shardSum > 0 {
		b["core.shard_skew"] = shardMax * float64(final.count("artemis_pipeline_shard_events_total")) / shardSum
	}
	b["ingest.queue_len_max"] = ld.queueMax
	b["core.inflight_max"] = ld.inflightMax
	hits := final["artemis_lookup_cache_hits_total"] - base.metrics["artemis_lookup_cache_hits_total"]
	misses := final["artemis_lookup_cache_misses_total"] - base.metrics["artemis_lookup_cache_misses_total"]
	b["lookup.cache_hit_frac"] = 0 // no lookups, no cache traffic
	if hits+misses > 0 {
		b["lookup.cache_hit_frac"] = hits / (hits + misses)
	}
	b["proc.ctxsw_per_kevent"] = (end.ctxsw - base.ctxsw) * 1e3 / offered
	b["gen.late_p99_ms"] = quantile(late, 0.99) * 1e3
	b["host.steal_frac"] = keptSteal
	for _, w := range all {
		b["host.steal_frac_all"] += w.steal / float64(len(all))
	}
	b["path.detect_p99_ms"] = quantile(detect, 0.99) * 1e3
	b["path.mitigate_p99_ms"] = quantile(total, 0.99) * 1e3
	b["path.mitigate_leg_p50_ms"] = median(leg) * 1e3
	b["lookup_p50_ms"] = median(lookups) * 1e3
	b["lookups_per_s"] = float64(len(lookups)) / keptSeconds
	res.Samples["lookup_p50_ms"] = len(lookups)
	res.Samples["windows"] = len(kept)
	res.Samples["windows_all"] = len(all)
	isKept := make(map[*window]bool, len(kept))
	for _, w := range kept {
		isKept[w] = true
	}
	for _, w := range all {
		sort.Float64s(w.detect)
		res.Windows = append(res.Windows, Window{
			Kept: isKept[w], Steal: w.steal, CPUPerEvent: w.cpu * 1e6 / max(w.offered, 1), DetectP50: median(w.detect) * 1e3,
		})
	}
	return res, nil
}

// quantile returns the q-quantile of an ascending-sorted sample by linear
// interpolation; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func median(sorted []float64) float64 { return quantile(sorted, 0.5) }
