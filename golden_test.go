package artemis_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"artemis/internal/fleet"
)

// The behaviour goldens: the paper experiments' figures and the fleet
// smoke scorecard are deterministic, so a change that moves either one
// shows up as a diff here. A change that moves them on purpose rewrites
// them (make golden, or go test -run TestGolden -update .) in the same
// commit and says why.
var update = flag.Bool("update", false, "rewrite testdata/golden from this build")

// TestGoldenExperiments runs one seeded trial per arm of E1–E6 and
// compares the figures with testdata/golden/experiments.txt. Each line is
// what `go test -bench 'BenchmarkE[1-6]_' -benchtime=1x .` prints for that
// benchmark, without the GOMAXPROCS suffix and the ns/op column.
func TestGoldenExperiments(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range paperExperiments() {
		ms, err := e.run(1)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		slices.SortFunc(ms, func(a, b metric) int { return strings.Compare(a.unit, b.unit) })
		buf.WriteString("Benchmark" + e.name)
		for _, m := range ms {
			fmt.Fprintf(&buf, " %s %s", benchFigure(m.v), m.unit)
		}
		buf.WriteByte('\n')
	}
	checkGolden(t, "experiments.txt", buf.Bytes())
}

// TestGoldenFleetSmoke regenerates the scorecard `fleet -smoke` writes
// and compares it with testdata/golden/fleet-smoke.json.
func TestGoldenFleetSmoke(t *testing.T) {
	const seed, seeds = 1, 1
	scs, err := fleet.Generate(nil, []string{"v4"}, seeds, seed)
	if err != nil {
		t.Fatal(err)
	}
	card := fleet.Score(fleet.RunAll(scs, nil), seed, seeds)
	for i := range card.Failures { // shrunk as cmd/fleet shrinks them
		f := &card.Failures[i]
		small, _ := fleet.Shrink(f.Scenario, f.Verdict, 12)
		f.Shrunk = &small
	}
	blob, err := json.MarshalIndent(card, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet-smoke.json", append(blob, '\n'))
}

// benchFigure formats v at the precision `go test -bench` prints a
// custom metric with.
func benchFigure(v float64) string {
	prec, y := 0, math.Abs(v)
	for lim := 999.95; y != 0 && y < lim && prec < 7; lim /= 10 {
		prec++
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (make golden writes it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var diff strings.Builder
	for i := 0; i < max(len(wl), len(gl)); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&diff, "line %d:\n  - %s\n  + %s\n", i+1, w, g)
		}
	}
	t.Errorf("%s differs from this build (- golden, + now); if the change is intended, run make golden and say why:\n%s", path, diff.String())
}
