package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"artemis/benchmark/gen"
)

// ledger is what the harness has put on each source so far, by source
// name: events sent, and of those the ones the daemon's client-side
// filter discards.
type ledger struct{ sent, filtered map[string]int }

// snapshot is the daemon's accounting at one settled instant.
type snapshot struct {
	at      time.Time
	ctxsw   float64
	health  health
	metrics promSamples
	settled bool // conservation held
}

// settle waits until the daemon has accounted for everything sent so far
// — per source, sent = delivered + deduplicated + dropped + rate-shed +
// filtered, and the pipeline has applied every batch it was handed — and
// then until alerts alerts and as many controller POSTs have arrived. A
// source reading "finished" is not completion: its forwarder may still
// hold a queue of batches. The snapshot is taken the moment conservation
// first holds.
func (r *run) settle(ctx context.Context, l ledger, alerts int) (snapshot, error) {
	var snap snapshot
	conserved := func() bool {
		h, err := r.api.health(ctx)
		if err != nil {
			return false
		}
		snap.health = h
		for _, s := range h.Sources {
			if int(s.Events+s.DedupHits+s.Drops+s.RateShed)+l.filtered[s.Name] != l.sent[s.Name] {
				return false
			}
		}
		m, err := r.api.metrics(ctx)
		if err != nil {
			return false
		}
		snap.metrics = m
		return m["artemis_pipeline_batches_submitted_total"] == m["artemis_pipeline_batches_applied_total"]
	}
	sctx, cancel := context.WithTimeout(ctx, settleLimit)
	defer cancel()
	err := r.d.waitFor(sctx, pollEvery, "conservation, alerts and controller POSTs", func() bool {
		if !snap.settled && conserved() {
			snap.settled = true
			snap.at = time.Now()
			snap.ctxsw = r.d.contextSwitches()
		}
		return snap.settled && r.alertCount() >= alerts && r.ctl.count() >= alerts
	})
	return snap, err
}

// sample is the state of the run at one window boundary: the generator's
// progress, the daemon's CPU time and delivery counters, and the host's
// stolen time.
type sample struct {
	at               time.Time
	offered, dropped int64 // generator side: events written, and of those filtered client-side
	cpu              float64
	steal, ticks     float64
	delivered, shed  int64 // daemon side, summed over sources
}

// load is what the measured phase observed on the generator's side.
type load struct {
	t0      time.Time
	due     []time.Time // per probe
	late    []float64   // per tick, seconds
	lateAt  []time.Time // per tick, when it was due
	samples []sample    // one per window boundary, the first at t0
	writers []*streamWriter
	lookups lookupStats
	// queueMax and inflightMax come from the /metrics sampler (traced runs,
	// and glass-mixed's own 1 Hz scrape).
	queueMax, inflightMax float64
}

// sourceName names stream i of the run in the daemon's config.
func sourceName(s *gen.Stream, i int) string {
	if s.MRT {
		return "mrt"
	}
	return fmt.Sprintf("bmp-%c", 'a'+i)
}

// measure runs warm-up, the measured phase and the checks.
func (r *run) measure(ctx context.Context) (*Result, error) {
	in := r.in
	if err := r.api.subscribe(ctx, r.onAlert); err != nil {
		return nil, err
	}
	risConn, err := r.ris.feed.await(ctx, r.starts)
	if err != nil {
		return nil, err
	}
	// The schedule below needs sub-millisecond sleeps, which only a
	// thread blocked in nanosleep gets (see sleepUntil).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// With two CPUs and a busy daemon, a thread that wakes on time still
	// waits for a CPU. The schedule's thread does little and must do it
	// punctually, so it asks for the best priority it is allowed; without
	// the privilege the run goes on and reports how late the schedule ran.
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -20)

	// Warm-up: open the echo incidents (on ris-paced, at the measured
	// rate) and wait until each has alerted and been mitigated, so the
	// measured phase sees only dedup hits from them.
	l := ledger{sent: map[string]int{}, filtered: map[string]int{}}
	warmStart := time.Now()
	for _, t := range in.Warm {
		sleepUntil(warmStart.Add(t.At))
		if err := write(risConn, t.Data); err != nil {
			return nil, fmt.Errorf("write warm-up: %w", err)
		}
		l.sent["ris"] += t.Events
	}
	warm := expectCount(in.WarmExpect)
	base, err := r.settle(ctx, l, warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w (%d alerts, %d POSTs of %d)", err, r.alertCount(), r.ctl.count(), warm)
	}

	ld, err := r.drive(ctx, risConn, &l)
	if err != nil {
		return nil, err
	}
	wantAlerts := 0
	for _, es := range r.in.Expects() {
		wantAlerts += expectCount(es)
	}
	end, serr := r.settle(ctx, l, wantAlerts)
	return r.score(ctx, l, base, end, serr, ld, wantAlerts)
}

// drive runs the measured phase: the open-loop schedule on the calling
// goroutine; beside it the bulk streams' writers, the readers, the window
// sampler and the /metrics sampler — all stopped and joined before it
// returns.
func (r *run) drive(ctx context.Context, risConn net.Conn, l *ledger) (*load, error) {
	in := r.in
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var failed error
	var failOnce sync.Once
	fail := func(err error) {
		failOnce.Do(func() { failed = err })
		cancel()
	}
	ld := &load{
		due:    make([]time.Time, len(in.Probes)),
		late:   make([]float64, 0, len(in.Ticks)),
		lateAt: make([]time.Time, 0, len(in.Ticks)),
	}
	var offered, dropped atomic.Int64
	stop := make(chan struct{})
	every := func(d time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(d)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					fn()
				}
			}
		}()
	}
	takeSample := func() {
		s := sample{at: time.Now(), offered: offered.Load(), dropped: dropped.Load()}
		s.cpu, _ = r.d.cpuSeconds() // a dead daemon fails the settle that follows
		s.steal, s.ticks = hostCPU()
		if h, err := r.api.health(ctx); err == nil {
			for _, src := range h.Sources {
				s.delivered += src.Events
				s.shed += src.Drops + src.RateShed
			}
			ld.samples = append(ld.samples, s)
		}
	}

	// Everything the generator sends is already encoded; what the run
	// allocates while measuring is a few small records per alert. Collecting
	// is put off to the end of the phase so that no collector thread
	// competes with the schedule or with the daemon for the two CPUs.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	takeSample()
	ld.t0 = time.Now()
	deadline := ld.t0.Add(time.Duration(r.opt.Seconds) * time.Second)
	every(windowLength, takeSample) // only this goroutine appends to ld.samples until wg.Wait

	switch {
	case r.opt.Trace:
		every(traceSampleEvery, func() { r.scrape(ctx, ld) })
	case in.Workload == gen.GlassMixed:
		every(glassScrapeEvery, func() { r.scrape(ctx, ld) }) // the workload's own 1 Hz scrape
	}

	for i, s := range in.Streams {
		sw := &streamWriter{s: s, offered: &offered, dropped: &dropped}
		if s.MRT {
			sw.w, sw.to = r.fifo, r.fifo.SetWriteDeadline
		} else {
			c, err := r.bmp[i].feed.await(ctx, r.starts)
			if err != nil {
				return nil, err
			}
			sw.w, sw.to = c, c.SetWriteDeadline
		}
		ld.writers = append(ld.writers, sw)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sw.run(ld.t0, deadline); err != nil {
				fail(err)
			}
		}()
	}

	// glass-mixed: hand the archive to the daemon now, and read beside it.
	if in.Evlog != nil {
		spec := fmt.Sprintf(`{"type":"replay","name":"replay","path":%q,"speed":1}`, filepath.Join(r.opt.Dir, "feed.evlog"))
		resp, err := r.api.do(ctx, http.MethodPost, "/v1/sources", r.api.token, strings.NewReader(spec))
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("POST /v1/sources: %s", resp.Status)
		}
		l.sent["replay"] = in.EvlogEvents
		for c := 0; c < lookupClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.lookupClient(ctx, int64(c), ld.t0, deadline, &ld.lookups)
			}()
		}
	}

	// The open-loop schedule: a tick is due at t0 + its At whatever
	// happened to the ticks before it, and a probe's latency counts from
	// when it was due.
	for i, t := range in.Ticks {
		at := ld.t0.Add(t.At)
		sleepUntil(at)
		ld.late = append(ld.late, time.Since(at).Seconds())
		ld.lateAt = append(ld.lateAt, at)
		if t.Probe >= 0 {
			ld.due[t.Probe] = at
		}
		if err := write(risConn, t.Data); err != nil {
			fail(fmt.Errorf("write RIS tick %d: %w", i, err))
		}
		if ctx.Err() != nil {
			break
		}
		l.sent["ris"] += t.Events
		offered.Add(int64(t.Events))
	}
	sleepUntil(deadline)
	close(stop)
	wg.Wait()
	if failed != nil {
		return nil, failed
	}
	takeSample()
	for i, sw := range ld.writers {
		name := sourceName(in.Streams[i], i)
		l.sent[name] = sw.sent
		l.filtered[name] = sw.filtered
	}
	if r.fifo != nil {
		// End of file: the mrt source finishes and the supervisor drains it.
		r.fifo.Close()
		r.fifo = nil
	}
	return ld, nil
}

// scrape takes one /metrics sample for the queue and in-flight maxima.
// Only the sampler goroutine calls it; drive reads the results after the
// goroutine has been joined.
func (r *run) scrape(ctx context.Context, ld *load) {
	m, err := r.api.metrics(ctx)
	if err != nil {
		return // the run may be ending; the final scrape is checked
	}
	q := m.max("artemis_ingest_source_queue_depth")
	f := m.max("artemis_pipeline_inflight_batches")
	ld.queueMax = max(ld.queueMax, q)
	ld.inflightMax = max(ld.inflightMax, f)
}

// lookupStats is what the read clients of glass-mixed observed.
type lookupStats struct {
	sync.Mutex
	issued, failed int
	seconds        []float64
	at             []time.Time
}

// lookupClient is one open-loop reader: one /v1/lookup in every
// lookupEvery-long slot from t0, at a seeded random instant of the slot —
// independent users do not arrive on a grid, and a fixed phase against
// the 10 ms probe schedule would make every probe collide with a lookup
// the same way for a whole run. Four lookups in five come from the hot
// set; each goes out under a tenant's own token and is timed from when it
// was due. A fixed read rate keeps the daemon's CPU per event comparable
// between commits: a cheaper read path shows as less CPU and lower lookup
// latency, not as more lookups served.
func (r *run) lookupClient(ctx context.Context, id int64, t0, deadline time.Time, st *lookupStats) {
	runtime.LockOSThread() // for sleepUntil
	defer runtime.UnlockOSThread()
	rnd := rand.New(rand.NewSource(r.in.Seed<<8 | id))
	tenants := r.in.World.Tenants
	for slot := 0; ; slot++ {
		due := t0.Add(time.Duration(slot)*lookupEvery + time.Duration(rnd.Int63n(int64(lookupEvery))))
		if !due.Before(deadline) || ctx.Err() != nil {
			return
		}
		sleepUntil(due)
		keys := r.in.ColdLookups
		if rnd.Float64() < hotLookupShare {
			keys = r.in.HotLookups
		}
		key := keys[rnd.Intn(len(keys))]
		token := tenants[rnd.Intn(len(tenants))].Token
		ok := r.lookup(ctx, key, token)
		took := time.Since(due).Seconds()
		st.Lock()
		st.issued++
		if ok {
			st.seconds = append(st.seconds, took)
			st.at = append(st.at, due)
		} else if ctx.Err() == nil {
			st.failed++
		}
		st.Unlock()
	}
}

// lookup issues one query and checks the whole answer.
func (r *run) lookup(ctx context.Context, key gen.Lookup, token string) bool {
	resp, err := r.api.do(ctx, http.MethodGet, "/v1/lookup/"+key.Query, token, nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Matched string `json:"matched"`
		Origin  uint32 `json:"origin"`
		RPKI    string `json:"rpki"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return false
	}
	return body.Matched == key.Query && body.Origin == key.Origin && body.RPKI == "valid"
}

// sleepUntil blocks the calling thread until t; a past t returns at once,
// so a late schedule catches up instead of slipping. Go's own timers wake
// through epoll_wait, whose timeout has millisecond resolution — a 1 ms
// schedule would run half a millisecond late on average — so this sleeps
// in nanosleep directly. Call it from a goroutine locked to its thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
