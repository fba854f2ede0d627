package ingest_test

import (
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/core"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

// liveSim is a small simulated Internet serving a real RIS websocket
// server whose lifecycle the tests control (kill / restart on the same
// address).
type liveSim struct {
	eng *sim.Engine
	nw  *simnet.Network
	ris *ris.Service
}

func newLiveSim(batchDelay time.Duration) *liveSim {
	tp := topo.Line(4, 10*time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	svc := ris.New(nw, []ris.CollectorConfig{
		{Name: "rrc00", Peers: []bgp.ASN{topo.FirstASN + 2, topo.FirstASN + 3}, BatchDelay: batchDelay},
	})
	return &liveSim{eng: eng, nw: nw, ris: svc}
}

// risInstance is one serving incarnation of the RIS websocket endpoint.
// kill tears down both the listener and the hijacked websocket
// connections (http.Server.Close alone leaves hijacked conns alive).
type risInstance struct {
	http    *http.Server
	handler *ris.Server
	addr    string
}

func (r *risInstance) kill() {
	r.http.Close()
	r.handler.Close()
}

// serveRIS starts a websocket server for the sim's RIS service on addr
// ("127.0.0.1:0" or a previous address to rebind).
func (s *liveSim) serveRIS(t *testing.T, addr string) *risInstance {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // the old port may need a beat to release
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	h := ris.NewServer(s.ris)
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return &risInstance{http: srv, handler: h, addr: ln.Addr().String()}
}

var watchFilter = feedtypes.Filter{
	Prefixes:     []prefix.Prefix{prefix.MustParse("10.0.0.0/23")},
	MoreSpecific: true,
	LessSpecific: true,
}

// TestRISServerKillReconnectAndMetrics is the acceptance path: a killed
// in-process RIS server must be redialed automatically, events must flow
// again after the restart, and the outage must be visible in the
// /metrics rendering (reconnect counter, state gauge).
func TestRISServerKillReconnectAndMetrics(t *testing.T) {
	s := newLiveSim(2 * time.Second)
	srv := s.serveRIS(t, "127.0.0.1:0")
	addr := srv.addr

	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	defer sup.Close()
	id := sup.AddDialer("ris[0]", ingest.RISDialer("ws://"+addr+"/v1/ws", watchFilter))
	waitFor(t, "initial connect", func() bool { return sup.SourceState(id) == ingest.StateHealthy })

	// Toggle a route until events arrive: the server registers the
	// subscription asynchronously, so the first changes can be missed.
	churnUntil := func(what string, target int) {
		deadline := time.Now().Add(5 * time.Second)
		on := false
		for got.count() < target {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (have %d events, want %d)", what, got.count(), target)
			}
			if on {
				s.nw.Withdraw(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
			} else {
				s.nw.Announce(topo.FirstASN, prefix.MustParse("10.0.0.0/23"))
			}
			on = !on
			s.eng.Run()
			time.Sleep(20 * time.Millisecond)
		}
	}
	churnUntil("events from epoch 1", 2)

	// Kill the server: the supervisor must notice and start redialing.
	srv.kill()
	waitFor(t, "outage detected", func() bool {
		st := sup.SourceState(id)
		return st == ingest.StateDegraded || st == ingest.StateConnecting
	})

	// Restart on the same address; the supervisor reconnects by itself.
	srv2 := s.serveRIS(t, addr)
	defer srv2.kill()
	waitFor(t, "reconnect", func() bool { return sup.SourceState(id) == ingest.StateHealthy })
	churnUntil("events after reconnect", got.count()+2)

	snap := sup.Snapshot()
	src := snap.Sources[0]
	if src.Reconnects < 1 {
		t.Fatalf("reconnects = %d, outage not recorded", src.Reconnects)
	}
	var b strings.Builder
	snap.WriteProm(&b)
	prom := b.String()
	for _, want := range []string{
		`artemis_ingest_source_reconnects_total{source="ris[0]"}`,
		`artemis_ingest_source_state{source="ris[0]",state="healthy"} 1`,
		`artemis_ingest_source_events_total{source="ris[0]"}`,
		`artemis_ingest_source_delivery_latency_seconds_count{source="ris[0]"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics rendering missing %q:\n%s", want, prom)
		}
	}
	if strings.Contains(prom, `reconnects_total{source="ris[0]"} 0`) {
		t.Fatalf("/metrics shows zero reconnects after an outage:\n%s", prom)
	}
}

// TestSoakFlappingFeeds runs the full ingest stack — simulated Internet,
// real RIS websocket + BGPmon XML servers, supervisor, sharded pipeline —
// while both servers are killed and restarted continuously. It is the
// `make soak` target (ARTEMIS_SOAK=10s go test -race -run SoakFlapping)
// and runs briefly in normal test mode. The pass criterion is survival:
// no panic, no deadlock, reconnects recorded, and events still flowing
// once the flapping stops.
func TestSoakFlappingFeeds(t *testing.T) {
	soak := 1200 * time.Millisecond
	if env := os.Getenv("ARTEMIS_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad ARTEMIS_SOAK %q: %v", env, err)
		}
		soak = d
	}

	const scale = 120 // simulated seconds per wall second
	s := newLiveSim(5 * time.Second)
	bmonSvc := bgpmon.New(s.nw, bgpmon.Config{
		Peers: []bgp.ASN{topo.FirstASN + 1}, MinDelay: 5 * time.Second, MaxDelay: 10 * time.Second,
	})

	risSrv := s.serveRIS(t, "127.0.0.1:0")
	risAddr := risSrv.addr
	bmonSrv, err := bgpmon.NewServer(bmonSvc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bmonAddr := bmonSrv.Addr()

	// Continuous route churn: the owned prefix plus a rotating
	// more-specific flap, announced and withdrawn forever.
	owned := prefix.MustParse("10.0.0.0/23")
	s.nw.Announce(topo.FirstASN, owned)
	var churn func()
	flap, on := prefix.MustParse("10.0.1.0/24"), false
	churn = func() {
		if on {
			s.nw.Withdraw(topo.FirstASN, flap)
		} else {
			s.nw.Announce(topo.FirstASN, flap)
		}
		on = !on
		s.eng.After(10*time.Second, churn)
	}
	s.eng.After(10*time.Second, churn)
	go s.eng.RunPaced(scale, 4*time.Hour, time.Second)
	defer s.eng.Stop()

	// Full data path: supervisor -> sharded pipeline -> detector+monitor.
	cfg := &core.Config{
		OwnedPrefixes: []prefix.Prefix{owned},
		LegitOrigins:  []bgp.ASN{topo.FirstASN},
		AlertDedupTTL: time.Hour,
		AlertDedupMax: 1 << 10,
	}
	det := core.NewDetector(cfg)
	mon := core.NewMonitor(cfg)
	pl := core.NewPipeline(det, mon, core.PipelineConfig{})
	defer pl.Close()
	sup := ingest.New(pl.Submit, ingest.Config{
		QueueDepth:  32,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	defer sup.Close()
	risID := sup.AddDialer("ris[0]", ingest.RISDialer("ws://"+risAddr+"/v1/ws", watchFilter))
	bmonID := sup.AddDialer("bgpmon[0]", ingest.BGPmonDialer(bmonAddr, watchFilter))

	// Flap both servers until the soak deadline.
	deadline := time.Now().Add(soak)
	for round := 0; time.Now().Before(deadline); round++ {
		time.Sleep(60 * time.Millisecond)
		if round%2 == 0 {
			risSrv.kill()
			time.Sleep(40 * time.Millisecond)
			risSrv = s.serveRIS(t, risAddr)
		} else {
			bmonSrv.Close()
			time.Sleep(40 * time.Millisecond)
			if bmonSrv, err = bgpmon.NewServer(bmonSvc, bmonAddr); err != nil {
				// The OS may hold the port briefly; retry once.
				time.Sleep(50 * time.Millisecond)
				if bmonSrv, err = bgpmon.NewServer(bmonSvc, bmonAddr); err != nil {
					t.Fatalf("bgpmon restart: %v", err)
				}
			}
		}
	}
	defer func() {
		risSrv.kill()
		bmonSrv.Close()
	}()

	// Flapping over: both sources must recover and deliver.
	waitFor(t, "ris recovery", func() bool { return sup.SourceState(risID) == ingest.StateHealthy })
	waitFor(t, "bgpmon recovery", func() bool { return sup.SourceState(bmonID) == ingest.StateHealthy })
	start := pl.Snapshot().Events
	waitFor(t, "events after recovery", func() bool { return pl.Snapshot().Events > start })

	snap := sup.Snapshot()
	var reconnects int64
	for _, src := range snap.Sources {
		reconnects += src.Reconnects
	}
	if reconnects == 0 {
		t.Fatal("soak flapped both servers but recorded no reconnects")
	}
	if pl.Snapshot().Events == 0 {
		t.Fatal("no events reached the pipeline during the soak")
	}
	t.Logf("soak: %v, reconnects=%d, pipeline events=%d, dedup size=%d",
		soak, reconnects, pl.Snapshot().Events, snap.DedupSize)
}
