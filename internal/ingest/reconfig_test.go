package ingest_test

import (
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/periscope"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

// healthLog records lifecycle transitions delivered via Config.OnHealth.
type healthLog struct {
	mu   sync.Mutex
	trns []ingest.HealthTransition
}

func (l *healthLog) record(t ingest.HealthTransition) {
	l.mu.Lock()
	l.trns = append(l.trns, t)
	l.mu.Unlock()
}

func (l *healthLog) all() []ingest.HealthTransition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ingest.HealthTransition(nil), l.trns...)
}

func (l *healthLog) has(name string, to ingest.State) bool {
	for _, tr := range l.all() {
		if tr.Name == name && tr.To == to {
			return true
		}
	}
	return false
}

// TestHealthTransitionsSurfaced: a flapping dial source must emit
// connecting→healthy→degraded→healthy transitions through OnHealth, and a
// removed source must end dead — the operator-visible health feed behind
// /v1/health and the subscription API.
func TestHealthTransitionsSurfaced(t *testing.T) {
	var log healthLog
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        1,
		OnHealth:    log.record,
	})
	defer sup.Close()

	d := &flakyDialer{}
	id := sup.AddDialer("flappy", d)
	waitFor(t, "healthy", func() bool { return log.has("flappy", ingest.StateHealthy) })

	// Kill the connection with further dials refused: degraded must surface.
	d.setFailures(3)
	d.lastConn().Close()
	waitFor(t, "degraded", func() bool { return log.has("flappy", ingest.StateDegraded) })
	waitFor(t, "re-healthy", func() bool { return sup.SourceState(id) == ingest.StateHealthy })

	sup.Remove(id)
	waitFor(t, "dead", func() bool { return log.has("flappy", ingest.StateDead) })

	for _, tr := range log.all() {
		if tr.From == tr.To {
			t.Fatalf("self-transition reported: %+v", tr)
		}
		if tr.ID != id || tr.Name != "flappy" {
			t.Fatalf("mislabelled transition: %+v", tr)
		}
	}
}

// rememberFilterDialer hands out fakeConns and records the filter its
// provider resolved at each dial.
type rememberFilterDialer struct {
	mu      sync.Mutex
	filter  ingest.FilterFunc
	applied []feedtypes.Filter
	conns   []*fakeConn
}

func (d *rememberFilterDialer) Dial() (ingest.Conn, error) {
	f := d.filter()
	c := newFakeConn()
	d.mu.Lock()
	d.applied = append(d.applied, f)
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *rememberFilterDialer) last() (feedtypes.Filter, *fakeConn, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) == 0 {
		return feedtypes.Filter{}, nil, 0
	}
	return d.applied[len(d.applied)-1], d.conns[len(d.conns)-1], len(d.conns)
}

// TestBouncePicksUpFilterChange: after the filter provider's state
// changes, Bounce must redial promptly (no backoff penalty) and the new
// connection must observe the updated filter.
func TestBouncePicksUpFilterChange(t *testing.T) {
	var mu sync.Mutex
	watched := []prefix.Prefix{prefix.MustParse("10.0.0.0/23")}
	provider := func() feedtypes.Filter {
		mu.Lock()
		defer mu.Unlock()
		return feedtypes.Filter{Prefixes: watched, MoreSpecific: true, LessSpecific: true}
	}

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		// A deliberately huge backoff: if Bounce paid it, the test would
		// time out instead of seeing the prompt redial.
		BackoffBase: time.Hour,
		BackoffMax:  time.Hour,
		Seed:        1,
	})
	defer sup.Close()

	d := &rememberFilterDialer{filter: provider}
	id := sup.AddDialer("dyn", d)
	waitFor(t, "first dial", func() bool { _, c, n := d.last(); return n == 1 && c != nil })
	if f, _, _ := d.last(); len(f.Prefixes) != 1 {
		t.Fatalf("first dial saw %d prefixes", len(f.Prefixes))
	}

	mu.Lock()
	watched = append(watched, prefix.MustParse("172.16.0.0/22"))
	mu.Unlock()
	sup.Bounce(id)
	waitFor(t, "redial with new filter", func() bool {
		f, _, n := d.last()
		return n >= 2 && len(f.Prefixes) == 2
	})
	waitFor(t, "healthy after bounce", func() bool { return sup.SourceState(id) == ingest.StateHealthy })

	// Events still flow on the fresh connection.
	_, c, _ := d.last()
	c.ch <- []feedtypes.Event{ev(100, "172.16.0.0/24", time.Second, 666)}
	waitFor(t, "delivery after bounce", func() bool { return got.count() == 1 })
}

// TestBounceInterruptsBackoff: a Bounce landing while the source is
// backing off between dials must cut the sleep short — a filter change
// reaches a degraded source as fast as a healthy one.
func TestBounceInterruptsBackoff(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		// Without the kick, the redial would wait out this hour.
		BackoffBase: time.Hour,
		BackoffMax:  time.Hour,
		Seed:        1,
	})
	defer sup.Close()

	d := &flakyDialer{failures: 1} // first dial fails -> source backs off
	id := sup.AddDialer("lazarus", d)
	waitFor(t, "degraded", func() bool { return sup.SourceState(id) == ingest.StateDegraded })

	sup.Bounce(id)
	waitFor(t, "prompt redial", func() bool { return d.dialCount() >= 2 })
	waitFor(t, "healthy after bounce", func() bool { return sup.SourceState(id) == ingest.StateHealthy })
}

// gatedDialer fails its first dial and blocks every later one until
// release is closed.
type gatedDialer struct {
	flakyDialer
	release chan struct{}
}

func (d *gatedDialer) Dial() (ingest.Conn, error) {
	if d.dialCount() > 0 {
		<-d.release
	}
	return d.flakyDialer.Dial()
}

// TestBounceKeepsItsRedial: the connection a Bounce's kick dials must
// survive that Bounce. The dialer blocks in Dial until Bounce has
// returned, so the fresh connection appears only after Bounce is done
// with the source: it must stay open, and the source must turn healthy
// after exactly one redial instead of waiting out its hour of backoff.
func TestBounceKeepsItsRedial(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: time.Hour, BackoffMax: time.Hour, Seed: 1})
	defer sup.Close()

	d := &gatedDialer{flakyDialer: flakyDialer{failures: 1}, release: make(chan struct{})}
	id := sup.AddDialer("gated", d)
	waitFor(t, "degraded", func() bool { return sup.SourceState(id) == ingest.StateDegraded })

	sup.Bounce(id)
	close(d.release)
	waitFor(t, "healthy after bounce", func() bool { return sup.SourceState(id) == ingest.StateHealthy })
	select {
	case <-d.lastConn().done:
		t.Fatal("Bounce closed the connection its own kick dialled")
	default:
	}
	if n := d.dialCount(); n != 2 {
		t.Fatalf("%d dials, want 2 (the failed one and the bounce's redial)", n)
	}
}

// TestPeriscopeDialer drives the REST polling dialer against a live
// periscope.Server over a small simulated Internet: initial answers
// arrive as announcements, a hijack shows up as a changed answer, and a
// withdrawn route surfaces as a withdrawal. The watch list is re-read
// every poll, so a hot-added prefix is picked up without a reconnect.
func TestPeriscopeDialer(t *testing.T) {
	tp := topo.Line(4, 10*time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	owned := prefix.MustParse("10.0.0.0/23")
	if err := nw.Announce(topo.FirstASN, owned); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	srv, err := periscope.NewServer(nw, []bgp.ASN{topo.FirstASN + 2, topo.FirstASN + 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// The server serializes queries through the engine: keep it runnable.
	stopEngine := make(chan struct{})
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		for {
			select {
			case <-stopEngine:
				return
			default:
				eng.Run()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() { close(stopEngine); <-engineDone }()

	var mu sync.Mutex
	watched := []prefix.Prefix{owned}
	provider := func() feedtypes.Filter {
		mu.Lock()
		defer mu.Unlock()
		return feedtypes.Filter{Prefixes: append([]prefix.Prefix(nil), watched...), MoreSpecific: true}
	}

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		BackoffBase: 5 * time.Millisecond,
		Seed:        1,
		DedupTTL:    -1, // answers repeat across LGs; count them all
	})
	defer sup.Close()
	id := sup.AddDialer("periscope[0]", ingest.PeriscopeDialer(ts.URL, ingest.PeriscopeConfig{
		Filter:       provider,
		PollInterval: 10 * time.Millisecond,
	}))

	countKind := func(p prefix.Prefix, k feedtypes.Kind) int {
		n := 0
		for _, e := range got.all() {
			if e.Prefix == p && e.Kind == k {
				n++
			}
		}
		return n
	}
	waitFor(t, "initial LG answers", func() bool { return countKind(owned, feedtypes.Announce) >= 2 })
	for _, e := range got.all() {
		if e.Source != periscope.SourceName || e.Collector == "" || e.VantagePoint == 0 {
			t.Fatalf("malformed periscope event: %+v", e)
		}
		if e.SeenAt != e.EmittedAt {
			t.Fatalf("LG events must carry no pipeline latency: %+v", e)
		}
	}

	// Hot-add a watched prefix: the next poll must query it without a
	// reconnect (state and connection survive).
	extra := prefix.MustParse("10.2.0.0/24")
	if err := nw.Announce(topo.FirstASN+1, extra); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	watched = append(watched, extra)
	mu.Unlock()
	waitFor(t, "hot-added watch answers", func() bool { return countKind(extra, feedtypes.Announce) >= 2 })

	// A withdrawn route must surface as a withdrawal.
	if err := nw.Withdraw(topo.FirstASN+1, extra); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "withdrawal observed", func() bool { return countKind(extra, feedtypes.Withdraw) >= 2 })

	snap := sup.Snapshot()
	if len(snap.Sources) != 1 || snap.Sources[0].Reconnects != 0 {
		t.Fatalf("unexpected reconnects during hot-add: %+v", snap.Sources)
	}
	if sup.SourceState(id) != ingest.StateHealthy {
		t.Fatalf("source not healthy: %v", sup.SourceState(id))
	}
	_ = fmt.Sprintf("%v", id)
}

// TestPeriscopeCloseHangingLG: a looking glass that accepts a query and
// never answers does not hold its reader, so Supervisor.Close returns
// promptly instead of waiting on it.
func TestPeriscopeCloseHangingLG(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: 5 * time.Millisecond, Seed: 1})
	sup.AddDialer("periscope[0]", ingest.PeriscopeDialer("http://"+ln.Addr().String(), ingest.PeriscopeConfig{
		LGs: []string{"lg-1"},
		Filter: ingest.StaticFilter(feedtypes.Filter{
			Prefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		}),
		PollInterval: 10 * time.Millisecond,
	}))
	select {
	case c := <-accepted:
		defer c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("no query reached the looking glass")
	}

	closed := make(chan struct{})
	go func() { sup.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Supervisor.Close waits on a looking glass that never answers")
	}
}
