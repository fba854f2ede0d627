package ris

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func setup(t *testing.T) (*simnet.Network, *sim.Engine, *Service) {
	t.Helper()
	tp := topo.Line(4, 10*time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	svc := New(nw, []CollectorConfig{
		{Name: "rrc00", Peers: []bgp.ASN{topo.FirstASN + 2, topo.FirstASN + 3}, BatchDelay: 5 * time.Second},
	})
	return nw, eng, svc
}

func TestCollectorEmitsAfterBatchDelay(t *testing.T) {
	nw, eng, svc := setup(t)
	var events []feedtypes.Event
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { events = append(events, ev) })
	p := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, p)
	eng.Run()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (two monitored VPs)", len(events))
	}
	for _, ev := range events {
		if ev.Source != SourceName || ev.Collector != "rrc00" {
			t.Fatalf("bad identity: %+v", ev)
		}
		if ev.Kind != feedtypes.Announce || ev.Prefix != p {
			t.Fatalf("bad content: %+v", ev)
		}
		lag := ev.EmittedAt - ev.SeenAt
		if lag < 4*time.Second || lag > 6*time.Second {
			t.Fatalf("pipeline lag = %v, want ~5s", lag)
		}
		if ev.Path[0] != ev.VantagePoint {
			t.Fatalf("path should start at the VP: %+v", ev)
		}
		origin, ok := ev.Origin()
		if !ok || origin != topo.FirstASN {
			t.Fatalf("origin = %v,%v", origin, ok)
		}
	}
}

func TestWithdrawEventKind(t *testing.T) {
	nw, eng, svc := setup(t)
	var kinds []feedtypes.Kind
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { kinds = append(kinds, ev.Kind) })
	p := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, p)
	eng.Run()
	nw.Withdraw(topo.FirstASN, p)
	eng.Run()
	if len(kinds) != 4 {
		t.Fatalf("got %d events", len(kinds))
	}
	if kinds[2] != feedtypes.Withdraw || kinds[3] != feedtypes.Withdraw {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestSubscribeFilter(t *testing.T) {
	nw, eng, svc := setup(t)
	var got int
	svc.Subscribe(feedtypes.Filter{
		Prefixes:     []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		MoreSpecific: true,
	}, func(ev feedtypes.Event) { got++ })
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/24"))  // covered
	nw.Announce(topo.FirstASN, prefix.MustParse("192.0.2.0/24")) // unrelated
	eng.Run()
	if got != 2 { // 2 VPs x 1 matching prefix
		t.Fatalf("filtered events = %d, want 2", got)
	}
}

func TestUnsubscribe(t *testing.T) {
	nw, eng, svc := setup(t)
	var got int
	cancel := svc.Subscribe(feedtypes.Filter{}, func(feedtypes.Event) { got++ })
	cancel()
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	eng.Run()
	if got != 0 {
		t.Fatalf("events after cancel: %d", got)
	}
}

func TestVantagePoints(t *testing.T) {
	_, _, svc := setup(t)
	vps := svc.VantagePoints()
	if len(vps) != 2 {
		t.Fatalf("VantagePoints = %v", vps)
	}
}

func TestBatchCoalescesMultipleChanges(t *testing.T) {
	nw, eng, svc := setup(t)
	var emitted []time.Duration
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { emitted = append(emitted, ev.EmittedAt) })
	// Two prefixes announced close together land in one batch window.
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/24"))
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.1.0/24"))
	eng.Run()
	if len(emitted) != 4 {
		t.Fatalf("got %d events", len(emitted))
	}
	for _, at := range emitted[1:] {
		if at != emitted[0] {
			t.Fatalf("batch not coalesced: %v", emitted)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, ev := range []feedtypes.Event{{
		Source:       SourceName,
		Collector:    "rrc01",
		VantagePoint: 65001,
		Kind:         feedtypes.Announce,
		Prefix:       prefix.MustParse("10.0.0.0/23"),
		Path:         []bgp.ASN{65001, 65002, 196615},
		SeenAt:       42 * time.Second,
		EmittedAt:    47 * time.Second,
	}, {
		Source:       SourceName,
		Collector:    "rrc\"\n00ö",
		VantagePoint: 4200000000,
		Kind:         feedtypes.Withdraw,
		Prefix:       prefix.MustParse("2001:db8::/32"),
		SeenAt:       1500 * time.Millisecond,
		EmittedAt:    2 * time.Second,
	}} {
		var d decoder
		var b feedtypes.Batch
		if err := d.decode(AppendMessage(nil, ev), &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.Events, []feedtypes.Event{ev}) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", b.Events, ev)
		}
	}
}

func TestFilterWireRoundTrip(t *testing.T) {
	f := feedtypes.Filter{
		Prefixes:     []prefix.Prefix{prefix.MustParse("10.0.0.0/23"), prefix.MustParse("192.0.2.0/24")},
		MoreSpecific: true,
		LessSpecific: true,
	}
	got, err := wireToFilter(filterToWire(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Prefixes) != 2 || !got.MoreSpecific || !got.LessSpecific {
		t.Fatalf("got %+v", got)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	nw, eng, svc := setup(t)
	srv := NewServer(svc)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	url := "ws://" + strings.TrimPrefix(hs.URL, "http://") + "/v1/ws"
	client, err := DialClient(url, feedtypes.Filter{
		Prefixes:     []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
		MoreSpecific: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Run the sim in a paced goroutine so server pushes happen while the
	// client reads. 1000x compression: the 5s batch delay becomes 5ms.
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	go eng.RunPaced(1000, 0, 200*time.Millisecond)

	var got []feedtypes.Event
	timeout := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case ev, ok := <-client.Events():
			if !ok {
				t.Fatalf("stream closed early: %v", client.Err())
			}
			got = append(got, ev)
		case <-timeout:
			t.Fatalf("timed out with %d events", len(got))
		}
	}
	for _, ev := range got {
		if ev.Prefix.String() != "10.0.0.0/23" || ev.Kind != feedtypes.Announce {
			t.Fatalf("unexpected event %+v", ev)
		}
		origin, ok := ev.Origin()
		if !ok || origin != topo.FirstASN {
			t.Fatalf("origin over the wire = %v,%v", origin, ok)
		}
	}
}

func TestServerRejectsGarbageSubscription(t *testing.T) {
	_, _, svc := setup(t)
	srv := NewServer(svc)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	url := "ws://" + strings.TrimPrefix(hs.URL, "http://") + "/v1/ws"

	ws, err := dialRaw(url)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if err := ws.WriteMessage(1, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	// Server should close on us.
	done := make(chan error, 1)
	go func() {
		_, _, err := ws.ReadMessage()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server kept garbage subscriber")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server did not close garbage subscriber")
	}
}
