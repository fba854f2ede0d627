package ingest_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
)

// TestMRTReplayDialer replays a hand-built MRT update archive through the
// supervisor and checks the decoded events: one announce per NLRI, one
// withdraw per withdrawn prefix, vantage point from the peer AS, and a
// dead source at EOF.
func TestMRTReplayDialer(t *testing.T) {
	epoch := time.Unix(1466000000, 0).UTC() // dumps' simEpoch
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	announce := &bgp.Update{
		Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{Value: bgp.OriginIGP},
			bgp.NewASPath([]bgp.ASN{100, 2000, 666}),
			&bgp.NextHopAttr{Addr: prefix.MustParseAddr("192.0.2.1")},
		},
		NLRI: []prefix.Prefix{prefix.MustParse("10.0.0.0/24"), prefix.MustParse("10.0.1.0/24")},
	}
	if err := w.Write(&mrt.BGP4MPMessage{
		Timestamp: epoch.Add(42 * time.Second),
		PeerAS:    100,
		PeerIP:    prefix.MustParseAddr("192.0.2.1"),
		Message:   announce,
	}); err != nil {
		t.Fatal(err)
	}
	withdraw := &bgp.Update{Withdrawn: []prefix.Prefix{prefix.MustParse("10.0.0.0/24")}}
	if err := w.Write(&mrt.BGP4MPMessage{
		Timestamp: epoch.Add(90 * time.Second),
		PeerAS:    100,
		PeerIP:    prefix.MustParseAddr("192.0.2.1"),
		Message:   withdraw,
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{DedupTTL: -1})
	defer sup.Close()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	id := sup.AddDialer("mrt", ingest.MRTReplayDialer(open, "rv0"), ingest.Blocking())
	sup.Wait()
	if st := sup.SourceState(id); st != ingest.StateFinished {
		t.Fatalf("state = %v, want finished at EOF", st)
	}

	evs := got.all()
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want 2 announces + 1 withdraw", evs)
	}
	for i, want := range []struct {
		kind feedtypes.Kind
		pfx  string
		at   time.Duration
	}{
		{feedtypes.Announce, "10.0.0.0/24", 42 * time.Second},
		{feedtypes.Announce, "10.0.1.0/24", 42 * time.Second},
		{feedtypes.Withdraw, "10.0.0.0/24", 90 * time.Second},
	} {
		ev := evs[i]
		if ev.Kind != want.kind || ev.Prefix != prefix.MustParse(want.pfx) || ev.SeenAt != want.at {
			t.Fatalf("event %d = %+v, want %v %s at %v", i, ev, want.kind, want.pfx, want.at)
		}
		if ev.VantagePoint != 100 || ev.Collector != "rv0" {
			t.Fatalf("event %d identity = %+v", i, ev)
		}
	}
	origin, ok := evs[0].Origin()
	if !ok || origin != 666 {
		t.Fatalf("origin = %v,%v", origin, ok)
	}
}

// readCounter counts the Read calls made on a reader.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func (c *readCounter) Close() error { return nil }

// TestMRTReplayReadsBuffered replays a 1,000-record update archive and
// counts the reads made on it: the dialer reads through a 64 KiB buffer,
// so the archive takes at most one read per 64 KiB plus the one that
// finds its end, not two per record.
func TestMRTReplayReadsBuffered(t *testing.T) {
	const records = 1000
	epoch := time.Unix(1466000000, 0).UTC()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for i := range records {
		if err := w.Write(&mrt.BGP4MPMessage{
			Timestamp: epoch.Add(time.Duration(i) * time.Second),
			PeerAS:    100,
			PeerIP:    prefix.MustParseAddr("192.0.2.1"),
			Message: &bgp.Update{
				Attrs: ribAttrs(100, 2000, 666),
				NLRI:  []prefix.Prefix{prefix.New(prefix.AddrFrom4(0x0a000000|uint32(i)<<8), 24)},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	size := buf.Len()
	rc := &readCounter{r: &buf}
	conn, err := ingest.MRTReplayDialer(func() (io.ReadCloser, error) { return rc, nil }, "rv0").Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	events := 0
	for {
		evs, err := conn.Recv()
		if err == ingest.ErrDone {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events += len(evs)
	}
	if events != records {
		t.Fatalf("events = %d, want %d", events, records)
	}
	if limit := (size+64<<10-1)/(64<<10) + 1; rc.reads > limit {
		t.Fatalf("%d reads for %d records (%d bytes), want at most %d", rc.reads, records, size, limit)
	}
}

// ribAttrs builds the path-attribute block of one RIB peer route.
func ribAttrs(path ...bgp.ASN) []bgp.PathAttr {
	return []bgp.PathAttr{
		&bgp.OriginAttr{Value: bgp.OriginIGP},
		bgp.NewASPath(path),
		&bgp.NextHopAttr{Addr: prefix.MustParseAddr("192.0.2.1")},
	}
}

// TestMRTReplayRIBVantagePoint replays a TABLE_DUMP_V2 snapshot whose peer
// is a route server: the peer AS (64999) does not appear in the AS path at
// all. The vantage point must come from the PEER_INDEX_TABLE via the RIB
// route's peer index, not from path[0].
func TestMRTReplayRIBVantagePoint(t *testing.T) {
	epoch := time.Unix(1466000000, 0).UTC()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{
		Timestamp:   epoch,
		CollectorID: prefix.MustParseAddr("198.51.100.1"),
		ViewName:    "rv0",
		Peers: []mrt.Peer{
			{BGPID: prefix.MustParseAddr("203.0.113.7"), IP: prefix.MustParseAddr("203.0.113.7"), AS: 64999},
			{BGPID: prefix.MustParseAddr("203.0.113.9"), IP: prefix.MustParseAddr("203.0.113.9"), AS: 100},
		},
	}
	if err := w.Write(pit); err != nil {
		t.Fatal(err)
	}
	// Route seen via peer 0 (route server 64999, absent from the path) and
	// peer 1 (a normal peer that prepends itself).
	if err := w.Write(&mrt.RIBEntry{
		Timestamp: epoch.Add(10 * time.Second),
		Prefix:    prefix.MustParse("10.0.0.0/24"),
		Routes: []mrt.RIBPeerRoute{
			{PeerIndex: 0, Originated: epoch, Attrs: ribAttrs(2000, 666)},
			{PeerIndex: 1, Originated: epoch, Attrs: ribAttrs(100, 666)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{DedupTTL: -1})
	defer sup.Close()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	id := sup.AddDialer("mrt", ingest.MRTReplayDialer(open, "rv0"), ingest.Blocking())
	sup.Wait()
	if st := sup.SourceState(id); st != ingest.StateFinished {
		t.Fatalf("state = %v, want finished at EOF", st)
	}
	evs := got.all()
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want 2 announces", evs)
	}
	if evs[0].VantagePoint != 64999 {
		t.Fatalf("route-server VP = %d, want 64999 (from peer index table, not path[0]=2000)", evs[0].VantagePoint)
	}
	if evs[1].VantagePoint != 100 {
		t.Fatalf("second VP = %d, want 100", evs[1].VantagePoint)
	}
}

// TestMRTReplayRIBWithoutPeerIndex feeds a RIB entry with no preceding
// PEER_INDEX_TABLE: the connection must fail with a descriptive error
// instead of guessing vantage points.
func TestMRTReplayRIBWithoutPeerIndex(t *testing.T) {
	epoch := time.Unix(1466000000, 0).UTC()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	if err := w.Write(&mrt.RIBEntry{
		Timestamp: epoch,
		Prefix:    prefix.MustParse("10.0.0.0/24"),
		Routes:    []mrt.RIBPeerRoute{{PeerIndex: 0, Originated: epoch, Attrs: ribAttrs(100, 666)}},
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	conn, err := ingest.MRTReplayDialer(open, "rv0").Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "PEER_INDEX_TABLE") {
		t.Fatalf("Recv err = %v, want RIB-before-peer-index error", err)
	}
}
