package ingest_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
)

// These are the regression tests for the queued-batch retention bug: the
// supervisor's per-source queue used to hold the producer's own slice,
// so a producer that recycles its batch storage — a Conn reusing its Recv
// buffer — would overwrite events the forwarder had not yet delivered. Poisoning released batches
// turns that corruption deterministic: if the queue retains producer
// storage, the collector observes PoisonPrefix/PoisonASN sentinels
// instead of the published events.

// checkNotPoisoned fails the test if any collected event carries poison
// sentinels or diverges from the expected per-index identity.
func checkNotPoisoned(t *testing.T, evs []feedtypes.Event) {
	t.Helper()
	for i := range evs {
		if evs[i].Prefix == feedtypes.PoisonPrefix || evs[i].Source == "poisoned" {
			t.Fatalf("event %d is poisoned — the queue retained released producer storage: %+v", i, evs[i])
		}
		for _, as := range evs[i].Path {
			if as == feedtypes.PoisonASN {
				t.Fatalf("event %d path holds the poison ASN — its arena was recycled while queued: %v", i, evs[i].Path)
			}
		}
	}
}

// TestQueuedBatchSurvivesPublisherRelease publishes pooled, poisoned
// batches through a hub into an in-process source, releasing each batch
// the moment Publish returns — exactly the feed lifecycle. In-process
// sources deliver inline, so every batch must reach deliver intact before
// Publish returns and its storage is recycled; nothing may be delivered
// from recycled storage afterwards.
func TestQueuedBatchSurvivesPublisherRelease(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{QueueDepth: 64, DedupTTL: -1})
	defer sup.Close()

	hub := hubSource{Hub: feedtypes.NewHub(), name: "pooled"}
	sup.AddSource("pooled", hub, feedtypes.Filter{})

	pool := feedtypes.NewBatchPool()
	pool.SetPoison(true)
	const rounds, perBatch = 50, 8
	for r := 0; r < rounds; r++ {
		b := pool.Get()
		for i := 0; i < perBatch; i++ {
			path := b.NewPath(3)
			path[0], path[1], path[2] = 100, 2000, bgp.ASN(61000+r)
			b.Append(feedtypes.Event{
				Source:       "pooled",
				Collector:    fmt.Sprintf("c%d", r),
				VantagePoint: 100,
				Kind:         feedtypes.Announce,
				Prefix:       prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", r, i)),
				Path:         path,
				SeenAt:       time.Duration(r) * time.Millisecond,
				EmittedAt:    time.Duration(r) * time.Millisecond,
			})
		}
		hub.Publish(b.Events)
		b.Release() // storage is poisoned and recycled here
	}

	waitFor(t, "all batches delivered", func() bool { return got.count() == rounds*perBatch })
	evs := got.all()
	checkNotPoisoned(t, evs)
	for i, e := range evs {
		r, j := i/perBatch, i%perBatch
		want := prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", r, j))
		if e.Prefix != want || e.Path[2] != bgp.ASN(61000+r) {
			t.Fatalf("event %d corrupted: got %s origin %v, want %s origin %d", i, e.Prefix, e.Path[2], want, 61000+r)
		}
	}
}

// reuseConn is a finite Conn that rebuilds every batch in ONE reused
// buffer — the strongest form of the "batch valid only until the next
// Recv" contract. Before handing out batch i it first smashes the buffer
// with poison, so a supervisor that queued the previous return value by
// reference delivers garbage.
type reuseConn struct {
	i   int
	n   int
	buf []feedtypes.Event
}

func (c *reuseConn) Recv() ([]feedtypes.Event, error) {
	if c.i >= c.n {
		return nil, ingest.ErrDone
	}
	for j := range c.buf { // poison the previous batch in place
		c.buf[j] = feedtypes.Event{Source: "poisoned", Prefix: feedtypes.PoisonPrefix}
	}
	c.buf = c.buf[:0]
	for j := 0; j < 4; j++ {
		c.buf = append(c.buf, ev(100, fmt.Sprintf("10.%d.%d.0/24", c.i, j), time.Duration(c.i)*time.Millisecond, 666))
	}
	c.i++
	return c.buf, nil
}

func (c *reuseConn) Close() error { return nil }

// TestDialConnMayReuseRecvBuffer verifies the dial path honors the Conn
// contract: batches queued from a connection that overwrites its Recv
// buffer must still be delivered intact and in order.
func TestDialConnMayReuseRecvBuffer(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{QueueDepth: 2, DedupTTL: -1})
	const n = 64
	sup.AddDialer("reuse", ingest.DialFunc(func() (ingest.Conn, error) {
		return &reuseConn{n: n}, nil
	}), ingest.Blocking())
	sup.Wait()
	sup.Close()

	evs := got.all()
	if len(evs) != n*4 {
		t.Fatalf("delivered %d events, want %d", len(evs), n*4)
	}
	checkNotPoisoned(t, evs)
	for i, e := range evs {
		want := prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", i/4, i%4))
		if e.Prefix != want {
			t.Fatalf("event %d out of order or corrupted: got %s want %s", i, e.Prefix, want)
		}
	}
}

// poisonConn wraps a real Conn and, before every Recv, smashes the batch
// it returned last — events and the paths they point to — in place. A
// supervisor that queued that batch by reference instead of copying it
// then delivers sentinels.
type poisonConn struct {
	ingest.Conn
	last []feedtypes.Event
}

func (c *poisonConn) Recv() ([]feedtypes.Event, error) {
	for i := range c.last {
		for j := range c.last[i].Path {
			c.last[i].Path[j] = feedtypes.PoisonASN
		}
		c.last[i] = feedtypes.Event{Source: "poisoned", Prefix: feedtypes.PoisonPrefix}
	}
	batch, err := c.Conn.Recv()
	c.last = batch
	return batch, err
}

func poisoning(d ingest.Dialer) ingest.Dialer {
	return ingest.DialFunc(func() (ingest.Conn, error) {
		c, err := d.Dial()
		if err != nil {
			return nil, err
		}
		return &poisonConn{Conn: c}, nil
	})
}

// checkDelivered fails unless got is want, event for event, paths
// included.
func checkDelivered(t *testing.T, got, want []feedtypes.Event) {
	t.Helper()
	checkNotPoisoned(t, got)
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Prefix != want[i].Prefix || got[i].SeenAt != want[i].SeenAt ||
			fmt.Sprint(got[i].Path) != fmt.Sprint(want[i].Path) {
			t.Fatalf("event %d = %v %v, want %v %v", i, got[i].Prefix, got[i].Path, want[i].Prefix, want[i].Path)
		}
	}
}

// TestRISConnBatchIsCopiedIn: the RIS connection decodes into one reused
// batch; the supervisor must copy each batch in before the next Recv
// reuses it, with a queue short enough that the forwarder lags.
func TestRISConnBatchIsCopiedIn(t *testing.T) {
	evs := risEvents(3000)
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{QueueDepth: 2, DedupTTL: -1})
	sup.AddDialer("ris", poisoning(ingest.RISDialer(risLoopback(t, risFrames(evs)), feedtypes.Filter{})), ingest.Blocking())
	waitFor(t, "every event delivered", func() bool { return got.count() >= len(evs) })
	sup.Close()
	checkDelivered(t, got.all(), evs)
}

// TestEventLogPendingSurvivesArenaReset: a paced replay reads one record
// ahead and holds it, not yet due, into the next Recv — which resets the
// batch arena the record was decoded into before delivering it. The
// held record's path must come through intact.
func TestEventLogPendingSurvivesArenaReset(t *testing.T) {
	const groups, perGroup = 25, 4
	var evs []feedtypes.Event
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			n := g*perGroup + i
			path := []bgp.ASN{100, 200, 300, 400, 500, 600}[:1+n%6]
			evs = append(evs, feedtypes.Event{
				Source: "bmp", Collector: "rtr", VantagePoint: 100, Kind: feedtypes.Announce,
				Prefix:    prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", g, i)),
				Path:      append(path, bgp.ASN(60000+n)),
				SeenAt:    time.Duration(n) * time.Microsecond,
				EmittedAt: time.Duration(g) * 40 * time.Millisecond, // a group is due together
			})
		}
	}
	data := evlogArchive(t, evs)
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{DedupTTL: -1})
	sup.AddDialer("replay", poisoning(ingest.EventLogReplayDialer(open, ingest.EventLogReplay{Speed: 1})), ingest.Blocking())
	sup.Wait()
	sup.Close()
	checkDelivered(t, got.all(), evs)
	if b := sup.Snapshot().Sources[0].Batches; b < groups {
		t.Fatalf("%d batches for %d paced groups: the replay never held a record back", b, groups)
	}
}
