// artemis-bench measures the artemisd binary built from this commit, end
// to end and layer by layer: wire bytes in on feed sockets and files, the
// alert out on /v1/alerts/stream, the mitigation acknowledged by a stub
// controller. See benchmark/README.md for the method.
//
//	go run ./benchmark/cmd/artemis-bench                       # every workload, end to end
//	go run ./benchmark/cmd/artemis-bench -trace 1              # plus the per-layer table and span files
//	go run ./benchmark/cmd/artemis-bench -workload bmp-flood -repeat 5
//
// With -workload the last line of standard output is one JSON object —
// correct, attempted, failed, metrics — for a driver to read.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"artemis/benchmark/gen"
	"artemis/benchmark/harness"
	"artemis/benchmark/layers"
	"artemis/benchmark/oracle"
)

// setupsPerRun bounds how often each run starts the daemon to time
// set-up; setup_s is the median.
const setupsPerRun = 15

func main() {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(gen.Workloads, ", ")+"); default all")
	seed := flag.Int64("seed", 1, "input seed: the only source of randomness")
	seconds := flag.Int("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced pass: per-layer metrics, layer table, span file per workload")
	repeat := flag.Int("repeat", 1, "run each workload N times with seeds seed..seed+N-1; report spread and check it against the bounds")
	artemisd := flag.String("artemisd", "", "daemon binary to measure (default: build ./cmd/artemisd from this tree)")
	binDir := flag.String("bin-dir", "", "where to build artemisd (default: a temporary directory)")
	work := flag.String("work", "", "parent of the per-run scratch directories (default: the system temp dir)")
	out := flag.String("out", "", "directory for trace-<workload>.json (default: benchmark/out)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := harness.Isolate(); err != nil {
		fmt.Fprintln(os.Stderr, "artemis-bench: the daemon shares its CPUs with the load generator:", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, repeat: *repeat,
		artemisd: *artemisd, binDir: *binDir, work: *work, out: *out,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "artemis-bench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	repeat      int
	artemisd    string
	binDir      string
	work        string
	out         string
	setups      int           // 0 → setupsPerRun
	lax         bool          // smoke test: do not apply the timing rules
	layerBudget time.Duration // 0 → the layers package's default
}

func run(ctx context.Context, c config) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if c.seconds == 0 {
		c.seconds = spec.RunSeconds
	}
	workloads := gen.Workloads
	if c.workload != "" {
		if !slices.Contains(gen.Workloads, c.workload) {
			return fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(gen.Workloads, ", "))
		}
		workloads = []string{c.workload}
	}
	if c.out == "" {
		c.out = filepath.Join(root, "benchmark", "out")
	}
	if c.setups == 0 {
		c.setups = setupsPerRun
	}
	scratch, err := os.MkdirTemp(c.work, "artemis-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if c.artemisd == "" {
		dir := c.binDir
		if dir == "" {
			dir = scratch
		}
		if c.artemisd, err = buildDaemon(ctx, root, dir); err != nil {
			return err
		}
	}
	placement := "the daemon shares them, with its defaults"
	if cpu, ok := harness.DaemonCPU(); ok {
		placement = fmt.Sprintf("the daemon has CPU %d to itself, with its defaults", cpu)
	}
	fmt.Printf("artemis-bench: %s %s/%s; the load generator runs on %d CPUs, GOMAXPROCS %d; %s; all traffic is host loopback or local files\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), placement)

	ok := true
	var last *report
	for _, wl := range workloads {
		var runs []*report
		for i := 0; i < c.repeat; i++ {
			rep, err := one(ctx, c, wl, c.seed+int64(i), filepath.Join(scratch, fmt.Sprintf("%s-%d", wl, i)))
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", wl, c.seed+int64(i), err)
			}
			rep.print(spec, c.trace)
			ok = ok && rep.correct()
			runs = append(runs, rep)
			last = rep
		}
		if c.repeat > 1 {
			ok = printSpread(spec, wl, runs) && ok
		}
	}
	if c.workload != "" && last != nil {
		// The driver's line: last on standard output.
		fmt.Println(last.driverLine(spec, c.trace))
	}
	if !ok {
		return fmt.Errorf("a check failed or a spread exceeded its bound (see above)")
	}
	return nil
}

// repoRoot finds the module root above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon builds ./cmd/artemisd from this tree into dir. Untimed.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "artemisd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/artemisd")
	cmd.Dir = root
	if outb, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build artemisd: %v\n%s", err, outb)
	}
	return bin, nil
}

// report is one run of one workload.
type report struct {
	workload string
	seed     int64
	seconds  int
	hash     string
	mix      string // shares of the generated non-probe events
	res      *harness.Result
	layers   *layers.Report // nil unless traced
}

// correct reports whether every check on the run's outputs passed. A run
// that passed them and is invalid — its generator ran late — still counts
// as correct: it says so in the report, and its figures are a disturbed
// sample of a daemon that did its work.
func (r *report) correct() bool { return len(r.res.Wrong) == 0 }

// one generates a workload's inputs, runs them end to end and, when
// traced, pushes the same inputs through each layer in isolation
// afterwards — the two passes never overlap.
func one(ctx context.Context, c config, wl string, seed int64, dir string) (*report, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	orc := oracle.New(gen.NewWorld(wl))
	sample := layers.NewSample()
	in, err := gen.Build(wl, seed, c.seconds, func(g *gen.Group) {
		orc.Observe(g)
		if c.trace {
			sample.Observe(g)
		}
	})
	if err != nil {
		return nil, err
	}
	want := orc.Incidents()
	// The generator annotates what each probe must raise; the oracle
	// derives it from the events alone. If they disagree the benchmark is
	// wrong, not the daemon.
	if err := crossCheck(in, want); err != nil {
		return nil, err
	}
	res, err := measure(ctx, c, in, want, dir)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: wl, seed: seed, seconds: c.seconds, hash: in.Hash, mix: in.MixShares(), res: res}
	if !c.trace {
		return rep, nil
	}
	ldir := filepath.Join(dir, "layers")
	if err := os.Mkdir(ldir, 0o755); err != nil {
		return nil, err
	}
	rep.layers, err = layers.Run(in, sample, layers.Options{
		Dir:           ldir,
		Budget:        c.layerBudget,
		BatchEvents:   res.Boundary["ingest.recv_events_per_batch"],
		DeliveredFrac: res.Boundary["delivered_frac"],
		CPUNsPerEvent: res.EndToEnd["cpu_us_per_event"] * 1e3,
	})
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	return rep, rep.layers.WriteTrace(filepath.Join(c.out, "trace-"+wl+".json"))
}

// A run is made again, on the same inputs, when it was invalid, when a
// check failed, or when even the quieter half of its windows lost more
// than noisyHost of the machine's CPU time to the hypervisor — maxAttempts
// times in all, so that the worst case still fits a driver's time budget.
// Which attempt is reported is decided by how disturbed the measurement
// was, never by what it measured.
const (
	maxAttempts = 2
	noisyHost   = 0.15
)

// measure runs the inputs end to end and returns the first attempt that
// passed every check on a quiet host; failing that, of the attempts that
// passed the one the host disturbed least; failing that, the same choice
// among those that did not pass.
func measure(ctx context.Context, c config, in *gen.Inputs, want map[gen.Incident]bool, dir string) (*harness.Result, error) {
	var best *harness.Result
	for attempt := 1; ; attempt++ {
		adir := filepath.Join(dir, fmt.Sprintf("attempt-%d", attempt))
		if err := os.Mkdir(adir, 0o755); err != nil {
			return nil, err
		}
		res, err := harness.Run(ctx, harness.Options{
			Artemisd: c.artemisd, Dir: adir, Seconds: c.seconds, Setups: c.setups,
			Trace: c.trace, Strict: !c.lax,
		}, in, want)
		if err != nil {
			return nil, err
		}
		steal := res.Boundary["host.steal_frac"]
		switch {
		case best == nil, res.OK() && !best.OK():
			best = res
		case res.OK() == best.OK() && steal < best.Boundary["host.steal_frac"]:
			best = res
		}
		if (res.OK() && steal <= noisyHost) || attempt == maxAttempts || c.lax {
			return best, nil
		}
		why := fmt.Sprintf("the host withheld %.1f%% of the CPU even in the run's quieter half", steal*100)
		if !res.OK() {
			why = strings.Join(append(res.Invalid, res.Wrong...), "; ")
		}
		fmt.Printf("   %s attempt %d set aside (%s); measuring again\n", in.Workload, attempt, why)
	}
}

// crossCheck compares the generator's own expectations with the oracle's
// incident set.
func crossCheck(in *gen.Inputs, want map[gen.Incident]bool) error {
	n := 0
	for _, es := range in.Expects() {
		for _, e := range es {
			for _, inc := range e.Incidents {
				if !want[inc] {
					return fmt.Errorf("benchmark bug: generator expects %+v, the oracle does not raise it", inc)
				}
				n++
			}
		}
	}
	if n != len(want) {
		return fmt.Errorf("benchmark bug: generator expects %d incidents, the oracle raises %d", n, len(want))
	}
	return nil
}
