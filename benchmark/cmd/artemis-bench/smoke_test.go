package main

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"artemis/benchmark/gen"
)

// Every workload, one second each, against a daemon built from this tree:
// the run must be valid (conservation holds), its outputs must match the
// oracle, and every metric BENCHMARK.json names must come out — end to
// end and, from the traced pass, per layer. The traced pass calls each
// layer's public entry points, so an API change that would rot the
// benchmark fails here instead. Timing rules are off: the test runs
// beside the rest of the suite on a loaded machine and asserts outputs,
// not speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs artemisd")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := buildDaemon(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(gen.Workloads, w.Name) {
			t.Fatalf("BENCHMARK.json lists workload %s, which the generator does not build", w.Name)
		}
	}
	c := config{
		seed: 1, seconds: 1, trace: true, artemisd: bin, out: filepath.Join(dir, "out"),
		setups: 1, lax: true, layerBudget: time.Millisecond,
	}
	for _, wl := range gen.Workloads {
		t.Run(wl, func(t *testing.T) {
			rep, err := one(ctx, c, wl, c.seed, filepath.Join(dir, wl))
			if err != nil {
				t.Fatal(err)
			}
			for _, why := range rep.res.Invalid {
				t.Errorf("invalid: %s", why)
			}
			for _, why := range rep.res.Wrong {
				t.Errorf("wrong: %s", why)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := rep.res.EndToEnd[m.Name]; !ok || v == 0 {
					t.Errorf("end-to-end metric %s: emitted %v, value %v", m.Name, ok, v)
				}
			}
			for _, m := range spec.PerLayer {
				if _, ok := rep.value(m.Name); !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
			}
		})
	}
}
