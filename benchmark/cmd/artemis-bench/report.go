package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// value returns the run's figure for a metric of BENCHMARK.json: end to
// end from the harness, per layer from the harness's boundary counters
// or the traced pass.
func (r *report) value(name string) (float64, bool) {
	if v, ok := r.res.EndToEnd[name]; ok {
		return v, true
	}
	if v, ok := r.res.Boundary[name]; ok {
		return v, true
	}
	if r.layers != nil {
		v, ok := r.layers.Metrics[name]
		return v, ok
	}
	return 0, false
}

func (r *report) print(s *spec, traced bool) {
	fmt.Printf("\n== %s  seed %d  %d s  inputs sha256 %s\n", r.workload, r.seed, r.seconds, r.hash)
	fmt.Printf("   event mix: %s\n", r.mix)
	status := "valid, outputs correct"
	switch {
	case !r.correct():
		status = "NOT OK"
	case len(r.res.Invalid) > 0:
		status = "INVALID (timings disturbed), outputs correct"
	}
	fmt.Printf("   %s; %d operations attempted, %d failed\n", status, r.res.Attempted, r.res.Failed)
	for _, why := range r.res.Invalid {
		fmt.Printf("   INVALID: %s\n", why)
	}
	for _, why := range r.res.Wrong {
		fmt.Printf("   WRONG: %s\n", why)
	}
	line := func(m metric) {
		v, ok := r.value(m.Name)
		if !ok {
			return
		}
		n := ""
		if c, ok := r.res.Samples[m.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("   %-34s %14.4f %s%s\n", m.Name, v, m.Unit, n)
	}
	for _, m := range s.EndToEnd {
		line(m)
	}
	b := r.res.Boundary
	fmt.Printf("   rate and CPU over the whole measured phase; latencies over %d of its %d one-second windows (the others lost over 2%% of the CPU to the host): stolen %.2f%% there, %.2f%% over the phase; generator lateness p99 %.3f ms\n",
		r.res.Samples["windows"], r.res.Samples["windows_all"], b["host.steal_frac"]*100, b["host.steal_frac_all"]*100, b["gen.late_p99_ms"])
	fmt.Print("   per window, cpu us/event | detect p50 ms | stolen % (* = left out):")
	for _, w := range r.res.Windows {
		mark := ""
		if !w.Kept {
			mark = "*"
		}
		fmt.Printf("  %.1f|%.2f|%.1f%s", w.CPUPerEvent, w.DetectP50, w.Steal*100, mark)
	}
	fmt.Println()
	if !traced {
		return
	}
	fmt.Println("   -- per layer --")
	for _, m := range s.PerLayer {
		line(m)
	}
	if r.layers != nil {
		r.layers.PrintTable(os.Stdout)
	}
}

// driverLine is the JSON object a driver reads from the last line of
// standard output: every end-to-end metric, or with tracing on every
// per-layer one.
func (r *report) driverLine(s *spec, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	metrics := make(map[string]mv, len(list))
	for _, m := range list {
		v, _ := r.value(m.Name) // a layer this workload does not exercise reads 0
		metrics[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.res.Attempted,
		"failed":    r.res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return string(b)
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (its default "exclusive" method) — the driver's arithmetic. It
// needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// printSpread reports, for each end-to-end metric, the median, the
// quartiles and the inter-quartile distance as a share of the median
// over the repeated runs, and whether that spread stays within the
// metric's bound. setup_s is reported but not held to its bound: its
// spread is start-up noise the bound deliberately exceeds.
func printSpread(s *spec, wl string, runs []*report) bool {
	fmt.Printf("\n== %s: spread over %d runs (seeds %d..%d)\n", wl, len(runs), runs[0].seed, runs[len(runs)-1].seed)
	fmt.Printf("   %-20s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	ok := true
	for _, m := range s.EndToEnd {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			if v, has := r.value(m.Name); has {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(vals)
		spread := (q3 - q1) / q2
		verdict := ""
		if spread > m.Bound && m.Name != "setup_s" {
			verdict = "  EXCEEDS BOUND"
			ok = false
		}
		fmt.Printf("   %-20s %14.4f %14.4f %14.4f %8.2f%% %6.0f%%%s\n", m.Name, q1, q2, q3, spread*100, m.Bound*100, verdict)
	}
	return ok
}
