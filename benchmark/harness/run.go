package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"artemis/benchmark/gen"
)

// Hard limits: a phase that exceeds its limit fails the run instead of
// hanging it.
const (
	setupLimit  = 60 * time.Second
	setupBudget = time.Second
	settleLimit = 30 * time.Second
	pollEvery   = 10 * time.Millisecond

	// An alert later than alertLimit after its probe was due, or a
	// controller POST later than postLimit after its alert, is a failed
	// operation.
	alertLimit = time.Second
	postLimit  = 2 * time.Second
	// An open-loop run whose 1 ms schedule ran later than this — at the
	// median, or at the 99th percentile — is invalid: the schedule, not the
	// daemon, was measured. With two CPUs shared between the daemon and the
	// generator, a thread that wakes on time still waits up to a scheduler
	// slice for a CPU now and then; twice the tick at p99 allows for that
	// and still catches a generator that cannot keep its schedule.
	lateLimitP50 = 250 * time.Microsecond
	lateLimitP99 = 2 * time.Millisecond

	// windowLength cuts the measured phase into the windows the latency
	// figures are selected from and the report lists (score.go).
	windowLength     = time.Second
	traceSampleEvery = 250 * time.Millisecond
	glassScrapeEvery = time.Second
	// glass-mixed's read load: lookupClients connections, each issuing a
	// lookup every lookupEvery — 400 lookups/s in all, one per fifteen
	// events.
	lookupClients  = 2
	lookupEvery    = 5 * time.Millisecond
	hotLookupShare = 0.8
)

// Options selects how one run is made.
type Options struct {
	// Artemisd is the daemon binary under test.
	Artemisd string
	// Dir is an empty directory for this run's config, feed files, record
	// segments and the daemon's log; the caller removes it.
	Dir string
	// Seconds is the length of the measured phase.
	Seconds int
	// Setups bounds how many times the daemon is started to time set-up:
	// at least three times (once when Setups is 1), then again until the
	// starts have taken setupBudget together or Setups is reached. The
	// last start serves the run and setup_s is the median.
	Setups int
	// Trace samples /metrics during the run for the queue and in-flight
	// maxima of the per-layer report. Off for end-to-end measurement, so
	// the scrapes do not perturb it.
	Trace bool
	// Strict applies the timing rules (generator lateness, late alerts and
	// POSTs). The smoke test turns it off: it runs beside the rest of the
	// test suite on a loaded machine and asserts outputs, not speed.
	Strict bool
}

// Result is one run's outcome.
type Result struct {
	// Invalid lists why the run's timings say more about the machine than
	// about the daemon (the generator ran late); an invalid run is reported
	// as such, never as a slow one.
	Invalid []string
	// Wrong lists the checks that failed: conservation, a feed that
	// reconnected, the oracle, failed operations, a daemon that did not
	// drain.
	Wrong []string
	// Attempted and Failed count operations: events offered, alerts and
	// controller POSTs expected, lookups issued.
	Attempted, Failed int
	// EndToEnd and Boundary are the metrics by name; Samples gives the
	// sample count behind each latency figure.
	EndToEnd map[string]float64
	Boundary map[string]float64
	Samples  map[string]int
	// Windows are the measured phase's one-second windows in time order,
	// for the report: how steady the run was inside.
	Windows []Window
}

// Window is what one window of the measured phase showed: the share of the
// machine's CPU time the host withheld, the daemon's CPU per offered event
// (us), the median detection latency of the probes due in it (ms), and
// whether the run's figures are taken over it.
type Window struct {
	Kept                          bool
	Steal, CPUPerEvent, DetectP50 float64
}

// OK reports whether the run is valid and every check passed.
func (r *Result) OK() bool { return len(r.Invalid) == 0 && len(r.Wrong) == 0 }

// observed is one alert frame of the stream.
type observed struct {
	inc gen.Incident
	at  time.Time
}

// run is the state of one run in progress.
type run struct {
	opt  Options
	in   *gen.Inputs
	want map[gen.Incident]bool

	ctl    *controller
	ris    *risServer
	bmp    []*bmpRouter
	fifo   *os.File
	api    *api
	d      *Daemon
	starts int // daemons started so far; the feeds' newest connection belongs to the last

	mu     sync.Mutex
	alerts []observed
}

// Run feeds in to a freshly started daemon and measures it. want is the
// oracle's incident set for in.
func Run(ctx context.Context, opt Options, in *gen.Inputs, want map[gen.Incident]bool) (*Result, error) {
	if opt.Setups < 1 {
		opt.Setups = 1
	}
	// Everything the run starts — the alert stream's reader included —
	// ends with it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{opt: opt, in: in, want: want}
	defer r.cleanup()
	if err := r.serve(); err != nil {
		return nil, err
	}
	setups, err := r.setup(ctx)
	if err != nil {
		return nil, err
	}
	res, err := r.measure(ctx)
	if err != nil {
		return nil, r.withLog(err)
	}
	sort.Float64s(setups)
	res.EndToEnd["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)
	d := r.d
	r.d = nil
	if err := d.Stop(); err != nil {
		res.Wrong = append(res.Wrong, err.Error())
	}
	return res, nil
}

// withLog appends the tail of the daemon's log to err.
func (r *run) withLog(err error) error {
	raw, rerr := os.ReadFile(filepath.Join(r.opt.Dir, "artemisd.log"))
	if rerr != nil || len(raw) == 0 {
		return err
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return fmt.Errorf("%w\n--- artemisd log tail ---\n%s", err, raw)
}

func (r *run) cleanup() {
	if r.d != nil {
		_ = r.d.Stop() // already failing; the child is reaped either way
	}
	if r.ris != nil {
		r.ris.close()
	}
	for _, b := range r.bmp {
		b.close()
	}
	if r.fifo != nil {
		r.fifo.Close()
	}
	if r.ctl != nil {
		r.ctl.close()
	}
}

// serve starts the harness's side of every feed and writes the daemon's
// config and input files.
func (r *run) serve() error {
	var err error
	if r.ctl, err = startController(); err != nil {
		return err
	}
	if r.ris, err = startRISServer(); err != nil {
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	r.api = newAPI(port, r.in.World.AdminToken)

	var cfg bytes.Buffer
	w := r.in.World
	scope := func(indent string) {
		fmt.Fprintf(&cfg, "%sorigins: [%d]\n%supstreams:\n%s  %d: [%d, %d]\n",
			indent, gen.LegitOrigin, indent, indent, gen.LegitOrigin, gen.Upstream0, gen.Upstream1)
	}
	list := func(t gen.Tenant) string {
		s := make([]string, len(t.Prefixes))
		for i, p := range t.Prefixes {
			s[i] = p.String()
		}
		return "[" + strings.Join(s, ", ") + "]"
	}
	if len(w.Tenants) == 1 {
		fmt.Fprintf(&cfg, "prefixes: %s\n", list(w.Tenants[0]))
		scope("")
	} else {
		cfg.WriteString("tenants:\n")
		for _, t := range w.Tenants {
			fmt.Fprintf(&cfg, "  - name: %s\n    prefixes: %s\n    token: %s\n", t.Name, list(t), t.Token)
			scope("    ")
		}
	}
	fmt.Fprintf(&cfg, "sources:\n  - type: ris\n    name: ris\n    url: %s\n", r.ris.url())
	for i, s := range r.in.Streams {
		if s.MRT {
			path := filepath.Join(r.opt.Dir, "feed.mrt")
			if r.fifo, err = makeFIFO(path); err != nil {
				return err
			}
			fmt.Fprintf(&cfg, "  - type: mrt\n    name: %s\n    path: %s\n", sourceName(s, i), path)
			continue
		}
		b, err := startBMPRouter(s.Greeting)
		if err != nil {
			return err
		}
		r.bmp = append(r.bmp, b)
		fmt.Fprintf(&cfg, "  - type: bmp\n    name: %s\n    addr: %s\n", sourceName(s, i), b.addr())
	}
	fmt.Fprintf(&cfg, "mitigation:\n  controller: %s\n  config-delay: -1s\n", r.ctl.url())
	fmt.Fprintf(&cfg, "control:\n  listen: 127.0.0.1:%d\n", port)
	if w.AdminToken != "" {
		fmt.Fprintf(&cfg, "  admin-token: %s\n", w.AdminToken)
	}
	files := map[string][]byte{}
	if r.in.Evlog != nil {
		files["feed.evlog"] = r.in.Evlog
		files["rib.mrt"] = r.in.RIB
		files["roas.json"] = r.in.ROAs
		files["asnames.csv"] = r.in.ASNames
		fmt.Fprintf(&cfg, "rib:\n  path: %s\nrpki:\n  path: %s\nasnames:\n  path: %s\nrecord:\n  path: %s\n",
			filepath.Join(r.opt.Dir, "rib.mrt"), filepath.Join(r.opt.Dir, "roas.json"),
			filepath.Join(r.opt.Dir, "asnames.csv"), filepath.Join(r.opt.Dir, "rec", "cap"))
		if err := os.Mkdir(filepath.Join(r.opt.Dir, "rec"), 0o755); err != nil {
			return err
		}
	}
	files["artemis.yaml"] = cfg.Bytes()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(r.opt.Dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setup starts the daemon repeatedly, timing each start from exec to
// /v1/health answering with every source past "connecting" (so a RIB
// bootstrap and the policy-table build are inside it). A start that
// takes milliseconds is repeated more often than one that takes a
// second, so the median is as steady as the budget allows. The last
// daemon stays up for the run; r.starts is how many there were.
func (r *run) setup(ctx context.Context) ([]float64, error) {
	var times []float64
	var spent float64
	for i := 1; ; i++ {
		r.starts = i
		last := i >= r.opt.Setups || (i >= min(3, r.opt.Setups) && spent >= setupBudget.Seconds())
		start := time.Now()
		d, err := startDaemon(r.opt.Artemisd, filepath.Join(r.opt.Dir, "artemis.yaml"), filepath.Join(r.opt.Dir, "artemisd.log"))
		if err != nil {
			return nil, err
		}
		r.d = d
		sctx, cancel := context.WithTimeout(ctx, setupLimit)
		err = d.waitFor(sctx, time.Millisecond, "daemon set-up", func() bool {
			h, err := r.api.health(sctx)
			if err != nil || len(h.Sources) == 0 {
				return false
			}
			for _, s := range h.Sources {
				if s.State == "connecting" {
					return false
				}
			}
			return true
		})
		if err == nil {
			times = append(times, time.Since(start).Seconds())
			// The run writes on the connections this daemon opened.
			_, err = r.ris.feed.await(sctx, i)
			for _, b := range r.bmp {
				if err == nil {
					_, err = b.feed.await(sctx, i)
				}
			}
		}
		cancel()
		if err != nil {
			return nil, r.withLog(err)
		}
		if last {
			return times, nil
		}
		spent += times[len(times)-1]
		r.d = nil
		if err := d.Stop(); err != nil {
			return nil, err
		}
	}
}

// onAlert records one frame of the alert stream.
func (r *run) onAlert(ev sseEvent) {
	if ev.kind != "alert" {
		return
	}
	var body struct {
		Alert alert `json:"alert"`
	}
	if err := json.Unmarshal(ev.data, &body); err != nil {
		return
	}
	r.mu.Lock()
	r.alerts = append(r.alerts, observed{inc: body.Alert.incident(), at: ev.at})
	r.mu.Unlock()
}

func (r *run) alertCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.alerts)
}

func expectCount(es []gen.Expect) int {
	n := 0
	for _, e := range es {
		n += len(e.Incidents)
	}
	return n
}
