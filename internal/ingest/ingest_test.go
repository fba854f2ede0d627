package ingest_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
)

// hubSource names a feedtypes.Hub so it satisfies feedtypes.Source /
// BatchSource — the in-process feed shape the experiments use.
type hubSource struct {
	*feedtypes.Hub
	name string
}

func (h hubSource) Name() string { return h.name }

// fakeConn is a scriptable live connection: batches arrive on ch; closing
// ch simulates a connection loss, Close simulates a local teardown.
type fakeConn struct {
	ch        chan []feedtypes.Event
	done      chan struct{}
	closeOnce sync.Once
}

func newFakeConn() *fakeConn {
	return &fakeConn{ch: make(chan []feedtypes.Event, 16), done: make(chan struct{})}
}

func (c *fakeConn) Recv() ([]feedtypes.Event, error) {
	select {
	case b, ok := <-c.ch:
		if !ok {
			return nil, errors.New("connection lost")
		}
		return b, nil
	case <-c.done:
		return nil, errors.New("connection closed")
	}
}

func (c *fakeConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

// flakyDialer fails a scripted number of dials before each success and
// hands out fakeConns.
type flakyDialer struct {
	mu       sync.Mutex
	failures int // remaining dials to fail
	dials    int
	conns    []*fakeConn
}

func (d *flakyDialer) Dial() (ingest.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	if d.failures > 0 {
		d.failures--
		return nil, errors.New("dial refused")
	}
	c := newFakeConn()
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *flakyDialer) dialCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

func (d *flakyDialer) lastConn() *fakeConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) == 0 {
		return nil
	}
	return d.conns[len(d.conns)-1]
}

func (d *flakyDialer) setFailures(n int) {
	d.mu.Lock()
	d.failures = n
	d.mu.Unlock()
}

func ev(vp bgp.ASN, p string, at time.Duration, origin bgp.ASN) feedtypes.Event {
	return feedtypes.Event{
		Source: "fake", Collector: "c0", VantagePoint: vp,
		Kind: feedtypes.Announce, Prefix: prefix.MustParse(p),
		Path: []bgp.ASN{vp, 2000, origin}, SeenAt: at, EmittedAt: at,
	}
}

// collector is a thread-safe delivery target.
type collector struct {
	mu  sync.Mutex
	evs []feedtypes.Event
}

func (c *collector) deliver(batch []feedtypes.Event) {
	c.mu.Lock()
	// Deep-copy: the supervisor recycles the delivered batch (and its
	// events' Path arenas) as soon as deliver returns.
	for _, e := range batch {
		if len(e.Path) > 0 {
			e.Path = append([]bgp.ASN(nil), e.Path...)
		}
		c.evs = append(c.evs, e)
	}
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

func (c *collector) all() []feedtypes.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]feedtypes.Event(nil), c.evs...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDialReconnectAfterConnectionLoss(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: time.Millisecond, Seed: 7})
	defer sup.Close()

	d := &flakyDialer{failures: 2} // two refused dials before the first conn
	id := sup.AddDialer("flaky", d)
	waitFor(t, "first connection", func() bool { return d.lastConn() != nil })
	d.lastConn().ch <- []feedtypes.Event{ev(100, "10.0.0.0/24", time.Second, 666)}
	waitFor(t, "first delivery", func() bool { return got.count() == 1 })
	if st := sup.SourceState(id); st != ingest.StateHealthy {
		t.Fatalf("state after delivery = %v", st)
	}

	// Kill the connection; the supervisor must redial and resume.
	first := d.lastConn()
	d.setFailures(1)
	close(first.ch)
	waitFor(t, "reconnect", func() bool { return d.lastConn() != first })
	d.lastConn().ch <- []feedtypes.Event{ev(101, "10.0.1.0/24", 2*time.Second, 666)}
	waitFor(t, "delivery after reconnect", func() bool { return got.count() == 2 })

	snap := sup.Snapshot()
	if len(snap.Sources) != 1 {
		t.Fatalf("sources = %+v", snap.Sources)
	}
	s := snap.Sources[0]
	// 2 failed dials + 1 success + 1 failed + 1 success = 5 dials, 4 of
	// them beyond the first.
	if s.Reconnects != 4 {
		t.Fatalf("reconnects = %d, want 4 (dials=%d)", s.Reconnects, d.dialCount())
	}
	if s.Events != 2 || s.Drops != 0 {
		t.Fatalf("events=%d drops=%d", s.Events, s.Drops)
	}
}

func TestDialBackoffBoundsRetriesAndDies(t *testing.T) {
	var got collector
	base := 20 * time.Millisecond
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: base, MaxRetries: 3, Seed: 7})
	defer sup.Close()

	d := &flakyDialer{failures: 1 << 30} // never succeeds
	start := time.Now()
	id := sup.AddDialer("dead-end", d)
	waitFor(t, "source death", func() bool { return sup.SourceState(id) == ingest.StateDead })
	elapsed := time.Since(start)
	if n := d.dialCount(); n != 3 {
		t.Fatalf("dials = %d, want MaxRetries = 3", n)
	}
	// Two sleeps happen between the three dials: at least base + 2*base
	// even without jitter.
	if elapsed < 3*base {
		t.Fatalf("died after %v; backoff sleeps should enforce >= %v", elapsed, 3*base)
	}
	if snap := sup.Snapshot(); snap.Sources[0].State != "dead" {
		t.Fatalf("snapshot state = %q", snap.Sources[0].State)
	}
}

func TestFlappingSourceDoesNotStallSibling(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: time.Millisecond, Seed: 3})
	defer sup.Close()

	flap := &flakyDialer{}
	sup.AddDialer("flapper", flap)
	steady := &flakyDialer{}
	sup.AddDialer("steady", steady)
	waitFor(t, "both connected", func() bool { return flap.lastConn() != nil && steady.lastConn() != nil })

	// Kill the flapper's connection over and over while the steady source
	// delivers; every steady event must arrive.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var killed *fakeConn
		for i := 0; i < 20; i++ {
			if c := flap.lastConn(); c != nil && c != killed {
				close(c.ch)
				killed = c
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < 50; i++ {
		steady.lastConn().ch <- []feedtypes.Event{ev(bgp.ASN(100+i), "10.0.0.0/24", time.Duration(i)*time.Millisecond, 666)}
	}
	waitFor(t, "steady deliveries", func() bool { return got.count() == 50 })
	<-done
}

func TestDropPolicyShedsWhenQueueFull(t *testing.T) {
	release := make(chan struct{})
	var delivered atomic.Int64
	deliver := func(batch []feedtypes.Event) {
		<-release // wedge the pipeline
		delivered.Add(int64(len(batch)))
	}
	sup := ingest.New(deliver, ingest.Config{QueueDepth: 2, BackoffBase: time.Millisecond, Seed: 1})
	d := &flakyDialer{}
	id := sup.AddDialer("hot", d)
	waitFor(t, "connection", func() bool { return d.lastConn() != nil })

	const sent = 32
	for i := 0; i < sent; i++ {
		d.lastConn().ch <- []feedtypes.Event{ev(100, "10.0.0.0/24", time.Duration(i)*time.Millisecond, 666)}
	}
	// The reader must shed: queue holds 2, one batch wedged in deliver.
	waitFor(t, "drops", func() bool {
		snap := sup.Snapshot()
		return len(snap.Sources) == 1 && snap.Sources[0].Drops > 0
	})
	if st := sup.SourceState(id); st != ingest.StateHealthy {
		t.Fatalf("shedding source should stay healthy, got %v", st)
	}
	close(release)
	// Every batch the reader received ends up accounted as delivered or
	// dropped; wait out the conn buffer before closing.
	waitFor(t, "full accounting", func() bool {
		s := sup.Snapshot().Sources[0]
		return s.Events+s.Drops+s.DedupHits == sent
	})
	sup.Close()
	snap := sup.Snapshot()
	s := snap.Sources[0]
	if delivered.Load() != s.Events {
		t.Fatalf("delivered %d != accounted events %d", delivered.Load(), s.Events)
	}
}

func TestCloseDuringInFlightBatches(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{QueueDepth: 4, BackoffBase: time.Millisecond, Seed: 1})
	d := &flakyDialer{}
	sup.AddDialer("busy", d)
	waitFor(t, "connection", func() bool { return d.lastConn() != nil })

	stop := make(chan struct{})
	var produced atomic.Int64
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			select {
			case d.lastConn().ch <- []feedtypes.Event{ev(100, "10.0.0.0/24", time.Duration(i)*time.Millisecond, 666)}:
				produced.Add(1)
			case <-stop:
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	sup.Close() // must not race with the in-flight producer or panic
	close(stop)
	snap := sup.Snapshot()
	s := snap.Sources[0]
	if s.State != "dead" {
		t.Fatalf("state after close = %q", s.State)
	}
	if int64(got.count()) != s.Events {
		t.Fatalf("delivered %d != accounted %d", got.count(), s.Events)
	}
}

func TestSynchronousDedupFirstWins(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{DedupTTL: time.Minute})
	defer sup.Close()

	a := hubSource{feedtypes.NewHub(), "a"}
	b := hubSource{feedtypes.NewHub(), "b"}
	idA := sup.AddSource("a", a, feedtypes.Filter{})
	idB := sup.AddSource("b", b, feedtypes.Filter{})

	// The same route change observed via both sources: a's copy lands
	// first and must win; b's is suppressed.
	change := ev(100, "10.0.0.0/24", time.Second, 666)
	viaA, viaB := change, change
	viaA.Source, viaA.EmittedAt = "a", change.SeenAt+10*time.Second
	viaB.Source, viaB.EmittedAt = "b", change.SeenAt+20*time.Second
	a.Publish([]feedtypes.Event{viaA})
	b.Publish([]feedtypes.Event{viaB})

	if got.count() != 1 || got.all()[0].Source != "a" {
		t.Fatalf("delivered = %+v, want exactly a's copy", got.all())
	}
	snap := sup.Snapshot()
	for _, s := range snap.Sources {
		switch ingest.SourceID(s.ID) {
		case idA:
			if s.Events != 1 || s.DedupHits != 0 {
				t.Fatalf("a: %+v", s)
			}
		case idB:
			if s.Events != 0 || s.DedupHits != 1 {
				t.Fatalf("b: %+v", s)
			}
		}
	}

	// A genuinely different change (new SeenAt) from b passes.
	later := ev(100, "10.0.0.0/24", 2*time.Second, 666)
	later.Source = "b"
	b.Publish([]feedtypes.Event{later})
	if got.count() != 2 {
		t.Fatalf("new change suppressed: %+v", got.all())
	}

	// Past the dedup TTL the original identity passes again.
	stale := viaB
	stale.EmittedAt = viaB.EmittedAt + 2*time.Minute
	b.Publish([]feedtypes.Event{stale})
	if got.count() != 3 {
		t.Fatalf("expired identity still suppressed: %+v", got.all())
	}
}

func TestHotAddRemove(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{})
	defer sup.Close()

	h := hubSource{feedtypes.NewHub(), "h"}
	id := sup.AddSource("h", h, feedtypes.Filter{})
	h.Publish([]feedtypes.Event{ev(100, "10.0.0.0/24", time.Second, 666)})
	if got.count() != 1 {
		t.Fatal("no delivery before remove")
	}
	sup.Remove(id)
	h.Publish([]feedtypes.Event{ev(100, "10.0.1.0/24", 2*time.Second, 666)})
	if got.count() != 1 {
		t.Fatal("removed source still delivering")
	}
	if len(sup.Snapshot().Sources) != 0 {
		t.Fatalf("snapshot still lists removed source: %+v", sup.Snapshot().Sources)
	}
	// Hot add after remove keeps working, with a fresh id.
	h2 := hubSource{feedtypes.NewHub(), "h2"}
	id2 := sup.AddSource("h2", h2, feedtypes.Filter{})
	if id2 == id {
		t.Fatal("source id reused")
	}
	h2.Publish([]feedtypes.Event{ev(101, "10.0.2.0/24", 3*time.Second, 666)})
	if got.count() != 2 {
		t.Fatal("hot-added source not delivering")
	}
}

func TestRemoveDialSourceUnblocksRecv(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{BackoffBase: time.Millisecond, Seed: 1})
	defer sup.Close()
	d := &flakyDialer{}
	id := sup.AddDialer("gone", d)
	waitFor(t, "connection", func() bool { return d.lastConn() != nil })
	sup.Remove(id) // Recv is blocked; Remove must unblock and kill it
	waitFor(t, "removal", func() bool { return len(sup.Snapshot().Sources) == 0 })
	sup.Wait() // both goroutines must exit
}

func TestBlockingReplayDeliversEverythingInOrder(t *testing.T) {
	var got collector
	slow := func(batch []feedtypes.Event) {
		time.Sleep(100 * time.Microsecond)
		got.deliver(batch)
	}
	sup := ingest.New(slow, ingest.Config{QueueDepth: 2, DedupTTL: -1})
	const n = 200
	batches := make([][]feedtypes.Event, n)
	for i := range batches {
		batches[i] = []feedtypes.Event{ev(100, "10.0.0.0/24", time.Duration(i)*time.Millisecond, 666)}
	}
	id := sup.AddDialer("replay", ingest.ReplayDialer(batches), ingest.Blocking())
	sup.Wait()
	defer sup.Close()
	if st := sup.SourceState(id); st != ingest.StateFinished {
		t.Fatalf("replay source state = %v, want finished after ErrDone", st)
	}
	all := got.all()
	if len(all) != n {
		t.Fatalf("delivered %d events, want %d (drops forbidden for blocking replay)", len(all), n)
	}
	for i := range all {
		if all[i].SeenAt != time.Duration(i)*time.Millisecond {
			t.Fatalf("order broken at %d: %v", i, all[i].SeenAt)
		}
	}
	if s := sup.Snapshot().Sources[0]; s.Drops != 0 {
		t.Fatalf("blocking replay dropped %d events", s.Drops)
	}
}

func TestAddAfterCloseRejected(t *testing.T) {
	sup := ingest.New(func([]feedtypes.Event) {}, ingest.Config{})
	sup.Close()
	if id := sup.AddDialer("late", &flakyDialer{}); id != -1 {
		t.Fatalf("AddDialer after Close = %v, want -1", id)
	}
	if id := sup.AddSource("late", hubSource{feedtypes.NewHub(), "x"}, feedtypes.Filter{}); id != -1 {
		t.Fatalf("AddSource after Close = %v, want -1", id)
	}
}

func TestSnapshotNamesAndIDsStable(t *testing.T) {
	sup := ingest.New(func([]feedtypes.Event) {}, ingest.Config{})
	defer sup.Close()
	var ids []ingest.SourceID
	for i := 0; i < 4; i++ {
		ids = append(ids, sup.AddSource(fmt.Sprintf("s%d", i), hubSource{feedtypes.NewHub(), "x"}, feedtypes.Filter{}))
	}
	snap := sup.Snapshot()
	if len(snap.Sources) != 4 {
		t.Fatalf("sources = %d", len(snap.Sources))
	}
	for i, s := range snap.Sources {
		if s.Name != fmt.Sprintf("s%d", i) || ingest.SourceID(s.ID) != ids[i] {
			t.Fatalf("snapshot order broken: %+v", snap.Sources)
		}
	}
}

// blockingDialer parks inside Dial until released — the window in which
// a Close/Remove used to leak the freshly dialed connection.
type blockingDialer struct {
	entered chan struct{}
	release chan struct{}
	conn    *fakeConn
}

func (d *blockingDialer) Dial() (ingest.Conn, error) {
	close(d.entered)
	<-d.release
	return d.conn, nil
}

func TestCloseDuringInFlightDial(t *testing.T) {
	sup := ingest.New(func([]feedtypes.Event) {}, ingest.Config{BackoffBase: time.Millisecond, Seed: 1})
	d := &blockingDialer{entered: make(chan struct{}), release: make(chan struct{}), conn: newFakeConn()}
	sup.AddDialer("slow-dial", d)
	<-d.entered // the reader is parked inside Dial

	closed := make(chan struct{})
	go func() {
		sup.Close() // must not hang once the dial completes
		close(closed)
	}()
	// Give Close a moment to pass its conn==nil window, then let the dial
	// return a live connection; the supervisor must notice it is stopped
	// and close that connection instead of blocking in Recv forever.
	time.Sleep(5 * time.Millisecond)
	close(d.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: connection dialed during shutdown was never torn down")
	}
	select {
	case <-d.conn.done:
	default:
		t.Fatal("the connection handed out mid-shutdown was not closed")
	}
}

func TestConcurrentAddSourceAndClose(t *testing.T) {
	for i := 0; i < 100; i++ {
		sup := ingest.New(func([]feedtypes.Event) {}, ingest.Config{})
		h := hubSource{feedtypes.NewHub(), "h"}
		added := make(chan struct{})
		go func() {
			defer close(added)
			for j := 0; j < 8; j++ {
				sup.AddSource(fmt.Sprintf("s%d", j), h, feedtypes.Filter{})
			}
		}()
		sup.Close()
		<-added
		// Whatever made it in before Close must be fully detached: a
		// publish after Close can at most be counted as a drop, never
		// hang or deliver.
		h.Publish([]feedtypes.Event{ev(100, "10.0.0.0/24", time.Second, 666)})
		sup.Close() // idempotent
	}
}
