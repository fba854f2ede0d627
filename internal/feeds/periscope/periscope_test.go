package periscope

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func setup(t *testing.T) (*simnet.Network, *sim.Engine) {
	t.Helper()
	tp := topo.Line(4, 10*time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	return nw, eng
}

func TestLookingGlassQuery(t *testing.T) {
	nw, eng := setup(t)
	p := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, p)
	eng.Run()
	lg, err := NewLookingGlass(nw, topo.FirstASN+3)
	if err != nil {
		t.Fatal(err)
	}
	answers := lg.Query(p)
	if len(answers) != 1 {
		t.Fatalf("answers = %+v", answers)
	}
	if answers[0].Origin != topo.FirstASN || answers[0].Path[0] != lg.ASN {
		t.Fatalf("answer = %+v", answers[0])
	}
}

func TestLookingGlassSeesSubPrefix(t *testing.T) {
	nw, eng := setup(t)
	owned := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, owned)
	nw.Announce(topo.FirstASN+2, prefix.MustParse("10.0.0.0/24")) // sub-prefix hijack
	eng.Run()
	lg, _ := NewLookingGlass(nw, topo.FirstASN+3)
	answers := lg.Query(owned)
	if len(answers) != 2 {
		t.Fatalf("want /23 and hijacked /24, got %+v", answers)
	}
	if answers[0].Prefix != owned || answers[1].Prefix.String() != "10.0.0.0/24" {
		t.Fatalf("answers = %+v", answers)
	}
	if answers[1].Origin != topo.FirstASN+2 {
		t.Fatalf("hijacked origin = %v", answers[1].Origin)
	}
}

func TestUnknownLGRejected(t *testing.T) {
	nw, _ := setup(t)
	if _, err := NewLookingGlass(nw, 9999); err == nil {
		t.Fatal("unknown AS accepted")
	}
	if _, err := New(nw, Config{LGs: []bgp.ASN{9999}}); err == nil {
		t.Fatal("service with unknown LG accepted")
	}
}

func TestPollingDetectsChange(t *testing.T) {
	nw, eng := setup(t)
	owned := prefix.MustParse("10.0.0.0/23")
	svc, err := New(nw, Config{
		LGs:          []bgp.ASN{topo.FirstASN + 3},
		Prefixes:     []prefix.Prefix{owned},
		PollInterval: 30 * time.Second,
		RTTMin:       time.Second, RTTMax: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []feedtypes.Event
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { events = append(events, ev) })

	nw.Announce(topo.FirstASN, owned)
	eng.RunUntil(40 * time.Second) // first poll at t=0 sees nothing; poll at 30s sees the route
	if len(events) != 1 {
		t.Fatalf("events = %+v", events)
	}
	ev := events[0]
	if ev.Source != SourceName || ev.Kind != feedtypes.Announce || ev.Prefix != owned {
		t.Fatalf("event = %+v", ev)
	}
	if ev.EmittedAt-ev.SeenAt != time.Second {
		t.Fatalf("RTT lag = %v", ev.EmittedAt-ev.SeenAt)
	}

	// Hijack changes the origin; next poll must emit exactly one change.
	nw.Announce(topo.FirstASN+2, owned)
	eng.RunUntil(100 * time.Second)
	if len(events) != 2 {
		t.Fatalf("after hijack events = %d", len(events))
	}
	if o, _ := events[1].Origin(); o != topo.FirstASN+2 {
		t.Fatalf("hijack origin = %v", o)
	}
	svc.Stop()
}

func TestPollingEmitsWithdrawalWhenAnswerDisappears(t *testing.T) {
	nw, eng := setup(t)
	owned := prefix.MustParse("10.0.0.0/23")
	svc, _ := New(nw, Config{
		LGs:          []bgp.ASN{topo.FirstASN + 3},
		Prefixes:     []prefix.Prefix{owned},
		PollInterval: 30 * time.Second,
		RTTMin:       time.Second, RTTMax: time.Second,
	})
	var events []feedtypes.Event
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { events = append(events, ev) })
	nw.Announce(topo.FirstASN, owned)
	eng.RunUntil(40 * time.Second)
	nw.Withdraw(topo.FirstASN, owned)
	eng.RunUntil(100 * time.Second)
	svc.Stop()
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[1].Kind != feedtypes.Withdraw || events[1].Prefix != owned {
		t.Fatalf("second event = %+v", events[1])
	}
}

func TestStaggerSpreadsPolls(t *testing.T) {
	nw, eng := setup(t)
	owned := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, owned)
	eng.Run()
	base := eng.Now()
	svc, _ := New(nw, Config{
		LGs:          []bgp.ASN{topo.FirstASN + 1, topo.FirstASN + 2, topo.FirstASN + 3},
		Prefixes:     []prefix.Prefix{owned},
		PollInterval: 90 * time.Second,
		RTTMin:       time.Millisecond, RTTMax: time.Millisecond,
	})
	var first []time.Duration
	svc.Subscribe(feedtypes.Filter{}, func(ev feedtypes.Event) { first = append(first, ev.SeenAt-base) })
	eng.RunUntil(base + 91*time.Second)
	svc.Stop()
	if len(first) != 3 {
		t.Fatalf("events = %v", first)
	}
	// Staggered at 0s, 30s, 60s after service start.
	for i, want := range []time.Duration{0, 30 * time.Second, 60 * time.Second} {
		if first[i] != want {
			t.Fatalf("poll times = %v", first)
		}
	}
}

func TestQueriesCountedAsOverhead(t *testing.T) {
	nw, eng := setup(t)
	svc, _ := New(nw, Config{
		LGs:          []bgp.ASN{topo.FirstASN + 2, topo.FirstASN + 3},
		Prefixes:     []prefix.Prefix{prefix.MustParse("10.0.0.0/23"), prefix.MustParse("192.0.2.0/24")},
		PollInterval: 60 * time.Second,
		NoStagger:    true,
		RTTMin:       time.Millisecond, RTTMax: time.Millisecond,
	})
	eng.RunUntil(121 * time.Second) // polls at 0, 60, 120 → 3 polls x 2 LGs x 2 prefixes
	svc.Stop()
	if got := svc.Queries(); got != 12 {
		t.Fatalf("Queries = %d, want 12", got)
	}
}

func TestHTTPServerEndToEnd(t *testing.T) {
	nw, eng := setup(t)
	owned := prefix.MustParse("10.0.0.0/23")
	nw.Announce(topo.FirstASN, owned)
	eng.Run()

	srv, err := NewServer(nw, []bgp.ASN{topo.FirstASN + 3})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// The HTTP query path schedules onto the engine; give it a consumer.
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.RunPaced(1e6, 0, 300*time.Millisecond)
	}()

	ids, err := HTTPListLGs(context.Background(), hs.URL)
	if err != nil || len(ids) != 1 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	routes, err := HTTPQuery(context.Background(), hs.URL, ids[0], owned)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 || routes[0].Origin != topo.FirstASN {
		t.Fatalf("routes = %+v", routes)
	}
	// Bad inputs.
	if _, err := HTTPQuery(context.Background(), hs.URL, "lg-none", owned); err == nil {
		t.Fatal("unknown LG id accepted over HTTP")
	}
	<-done
}
