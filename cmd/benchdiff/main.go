// benchdiff compares two `go test -bench` outputs and prints a
// benchstat-style table: one row per (benchmark, metric) pair present in
// both files, with the old value, new value, and relative delta. CI runs
// it against the PR base's bench.txt so sink-latency (or any other)
// regressions are visible per PR without external tooling.
//
//	go test -bench=. -benchtime=1x -run='^$' ./... > new.txt   # and old.txt
//	go run ./cmd/benchdiff old.txt new.txt
//
// With -gates it additionally enforces committed absolute thresholds
// (bench.gates at the repo root) against the NEW file, exiting non-zero
// on any violation. -check gates a single bench file without a diff:
//
//	go run ./cmd/benchdiff -gates bench.gates -check bench.txt
//
// Setting BENCHDIFF_SKIP_GATES=1 downgrades gate violations to warnings
// (see docs/PERFORMANCE.md for when that is acceptable).
//
// -loc checks the tree's non-test Go line counts, from the repository
// root, against a gates file of `<dir> lines <= N` bounds (loc.gates); a
// bound with more than 50 lines of slack fails as well:
//
//	go run ./cmd/benchdiff -loc loc.gates
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics maps "Benchmark/name metric" → value for one bench file.
type metrics map[string]float64

// stripProcs drops a trailing numeric "-N" (the GOMAXPROCS suffix Go
// appends when GOMAXPROCS > 1). "SinkApply/incremental-8" → ".../incremental".
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func parse(path string) (metrics, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	type entry struct {
		name, unit string
		value      float64
	}
	var entries []entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: Name[-GOMAXPROCS]  N  value unit  value unit  …
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			entries = append(entries, entry{fields[0], fields[i+1], v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	// Strip the -GOMAXPROCS suffix for cross-run key stability — but only
	// when that doesn't merge two DIFFERENT benchmarks. With GOMAXPROCS=1
	// Go omits the suffix, so "fanout-1" is the full sub-benchmark name
	// and stripping it would collapse "fanout-1"/"fanout-4" into "fanout".
	owner := map[string]string{} // stripped → raw name that claimed it
	collides := map[string]bool{}
	for _, e := range entries {
		s := stripProcs(e.name)
		if raw, ok := owner[s]; ok && raw != e.name {
			collides[s] = true
		}
		owner[s] = e.name
	}
	out := metrics{}
	var order []string
	for _, e := range entries {
		name := stripProcs(e.name)
		if collides[name] {
			name = e.name
		}
		key := name + " " + e.unit
		if _, seen := out[key]; !seen {
			order = append(order, key)
		}
		out[key] = e.value
	}
	return out, order, nil
}

// gate is one committed threshold: the named metric of the named
// benchmark must be <= max in the gated file.
type gate struct {
	key string // "BenchmarkName/sub metric", same form as metrics keys
	max float64
}

// parseGates reads a gates file: one `<benchmark> <metric> <= <value>`
// per line, '#' comments and blank lines ignored.
func parseGates(path string) ([]gate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var gates []gate
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 4 || fields[2] != "<=" {
			return nil, fmt.Errorf("%s:%d: want `<benchmark> <metric> <= <value>`, got %q", path, line, sc.Text())
		}
		max, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad threshold %q: %v", path, line, fields[3], err)
		}
		gates = append(gates, gate{key: fields[0] + " " + fields[1], max: max})
	}
	return gates, sc.Err()
}

// enforce checks every gate against m. Missing benchmarks are
// violations too: a gate that silently stops measuring anything is a
// gate that has already failed. Returns the number of violations.
func enforce(gates []gate, m metrics) int {
	violations := 0
	for _, g := range gates {
		v, ok := m[g.key]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "GATE MISSING  %s: not present in bench output (renamed or not run?)\n", g.key)
			violations++
		case v > g.max:
			fmt.Fprintf(os.Stderr, "GATE FAIL     %s = %g, committed threshold <= %g\n", g.key, v, g.max)
			violations++
		default:
			fmt.Printf("gate ok       %s = %g <= %g\n", g.key, v, g.max)
		}
	}
	return violations
}

func main() {
	gatesPath := flag.String("gates", "", "path to a committed thresholds file; violations in the new file fail the run")
	check := flag.Bool("check", false, "gate a single bench file (no old/new diff)")
	locPath := flag.String("loc", "", "path to a line-count gates file; checks the tree under the working directory")
	flag.Parse()
	args := flag.Args()

	if *locPath != "" {
		n, err := checkLOC(*locPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: %d line-count gate violation(s); raise or lower the bound in loc.gates and say why in CHANGES.md\n", n)
			os.Exit(1)
		}
		return
	}

	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gates file] <old.txt> <new.txt>")
		fmt.Fprintln(os.Stderr, "       benchdiff -gates file -check <new.txt>")
		fmt.Fprintln(os.Stderr, "       benchdiff -loc loc.gates")
		os.Exit(2)
	}

	var new_ metrics
	var order []string
	var err error
	if *check {
		if len(args) != 1 || *gatesPath == "" {
			usage()
		}
		new_, order, err = parse(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		_ = order
	} else {
		if len(args) != 2 {
			usage()
		}
		old, _, err := parse(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		new_, order, err = parse(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}

		width := 0
		rows := make([]string, 0, len(order))
		for _, key := range order {
			if _, ok := old[key]; !ok {
				continue
			}
			rows = append(rows, key)
			if len(key) > width {
				width = len(key)
			}
		}
		sort.Strings(rows)
		fmt.Printf("%-*s  %14s  %14s  %8s\n", width, "benchmark metric", "old", "new", "delta")
		for _, key := range rows {
			o, n := old[key], new_[key]
			delta := "~"
			if o != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
			}
			fmt.Printf("%-*s  %14.4g  %14.4g  %8s\n", width, key, o, n, delta)
		}
		// Benchmarks only on one side are still worth surfacing.
		for _, key := range order {
			if _, ok := old[key]; !ok {
				fmt.Printf("%-*s  %14s  %14.4g  %8s\n", width, key, "-", new_[key], "new")
			}
		}
	}

	if *gatesPath == "" {
		return
	}
	gates, err := parseGates(*gatesPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if n := enforce(gates, new_); n > 0 {
		if os.Getenv("BENCHDIFF_SKIP_GATES") == "1" {
			fmt.Fprintf(os.Stderr, "benchdiff: %d gate violation(s) IGNORED (BENCHDIFF_SKIP_GATES=1)\n", n)
			return
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %d gate violation(s); see docs/PERFORMANCE.md#the-allocsop-gate\n", n)
		os.Exit(1)
	}
}
