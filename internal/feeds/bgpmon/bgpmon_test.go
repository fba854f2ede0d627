package bgpmon

import (
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func setup(t *testing.T, minD, maxD time.Duration) (*simnet.Network, *sim.Engine, *Service) {
	t.Helper()
	tp := topo.Line(4, 10*time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	svc := New(nw, Config{
		Peers:    []bgp.ASN{topo.FirstASN + 2, topo.FirstASN + 3},
		MinDelay: minD, MaxDelay: maxD,
	})
	return nw, eng, svc
}

func TestPerEventDelay(t *testing.T) {
	nw, eng, svc := setup(t, 10*time.Second, 20*time.Second)
	var events []feedtypes.Event
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { events = append(events, ev) })
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	eng.Run()
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	for _, ev := range events {
		lag := ev.EmittedAt - ev.SeenAt
		if lag < 10*time.Second || lag > 20*time.Second {
			t.Fatalf("lag = %v, want within [10s,20s]", lag)
		}
		if ev.Source != SourceName || ev.Collector != "bmon0" {
			t.Fatalf("identity: %+v", ev)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Collector != "bmon0" || cfg.MinDelay != 20*time.Second || cfg.MaxDelay != 60*time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
	inverted := Config{MinDelay: 30 * time.Second, MaxDelay: time.Second}.withDefaults()
	if inverted.MaxDelay != inverted.MinDelay {
		t.Fatal("inverted bounds not clamped")
	}
}

func TestXMLRoundTripAnnouncement(t *testing.T) {
	ev := feedtypes.Event{
		Source:       SourceName,
		Collector:    "bmon0",
		VantagePoint: 65001,
		Kind:         feedtypes.Announce,
		Prefix:       prefix.MustParse("10.0.0.0/23"),
		Path:         []bgp.ASN{65001, 65002, 196615},
		SeenAt:       3 * time.Second,
		EmittedAt:    33 * time.Second,
	}
	evs, err := xmlToEvents(eventToXML(ev))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	got := evs[0]
	if got.Prefix != ev.Prefix || got.VantagePoint != ev.VantagePoint ||
		got.SeenAt != ev.SeenAt || got.EmittedAt != ev.EmittedAt || len(got.Path) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if o, _ := got.Origin(); o != 196615 {
		t.Fatalf("origin = %v", o)
	}
}

func TestXMLRoundTripWithdrawal(t *testing.T) {
	ev := feedtypes.Event{
		Collector: "bmon0", VantagePoint: 65001,
		Kind: feedtypes.Withdraw, Prefix: prefix.MustParse("10.0.0.0/23"),
	}
	evs, err := xmlToEvents(eventToXML(ev))
	if err != nil || len(evs) != 1 || evs[0].Kind != feedtypes.Withdraw {
		t.Fatalf("evs=%v err=%v", evs, err)
	}
}

func TestXMLRejectsGarbage(t *testing.T) {
	if _, err := xmlToEvents(xmlMessage{Update: xmlUpdate{NLRI: []string{"bogus"}}}); err == nil {
		t.Fatal("bad NLRI accepted")
	}
	if _, err := xmlToEvents(xmlMessage{Update: xmlUpdate{Withdraw: []string{"x/99"}}}); err == nil {
		t.Fatal("bad WITHDRAW accepted")
	}
	if _, err := xmlToEvents(xmlMessage{Update: xmlUpdate{NLRI: []string{"10.0.0.0/24"}, ASPath: "1 banana"}}); err == nil {
		t.Fatal("bad AS_PATH accepted")
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	nw, eng, svc := setup(t, 2*time.Second, 2*time.Second)
	srv, err := NewServer(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialClient(srv.Addr(), feedtypes.Filter{
		Prefixes: []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	nw.Announce(topo.FirstASN, prefix.MustParse("192.0.2.0/24")) // filtered out client-side
	go eng.RunPaced(1000, 0, 200*time.Millisecond)

	// Recv blocks on the socket; closing the client ends a stalled read.
	stall := time.AfterFunc(5*time.Second, func() { client.Close() })
	defer stall.Stop()
	var got []feedtypes.Event
	for len(got) < 2 {
		batch, err := client.Recv()
		if err != nil {
			t.Fatalf("stream ended with %d events: %v", len(got), err)
		}
		got = append(got, batch...)
	}
	for _, ev := range got {
		if ev.Prefix.String() != "10.0.0.0/23" {
			t.Fatalf("filter leaked %v", ev.Prefix)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	nw, eng, svc := setup(t, time.Second, time.Second)
	n := 0
	cancel := svc.Subscribe(feedtypes.Filter{}, func(feedtypes.Event) { n++ })
	cancel()
	nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
	eng.Run()
	if n != 0 {
		t.Fatalf("delivered after cancel: %d", n)
	}
}
