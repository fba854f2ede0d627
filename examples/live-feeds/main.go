// Live-feeds: the full networked stack over real sockets.
//
// The simulated Internet runs paced against the wall clock (compressed
// 60x) while real servers expose it: a RIS-style WebSocket stream, a
// BGPmon-style XML TCP stream, and an ONOS-style REST controller. An
// ARTEMIS node — the one artemisd runs — connects to those servers as a
// *client*, exactly as the daemon would against external
// infrastructure: its supervised sources own both connections
// (reconnect, cross-source dedup, per-source accounting) and fan them
// into the detection pipeline, and mitigation flows back through the
// controller's REST API. It exits non-zero unless the hijack is
// detected and mitigated.
//
//	go run ./examples/live-feeds
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/ris"
	"artemis/internal/peering"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
	"artemis/pkg/artemis"
)

func main() {
	const scale = 60.0 // one simulated minute per wall second

	// --- Simulated Internet ---
	cfg := topo.DefaultGenConfig()
	cfg.Stubs = 120
	tp, err := topo.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stub0 := topo.FirstASN + bgp.ASN(cfg.Tier1+cfg.Transit)
	victim, err := peering.Attach(tp, 61000, []bgp.ASN{stub0, stub0 + 1}, 5*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	attacker, err := peering.Attach(tp, 64666, []bgp.ASN{stub0 + 30, stub0 + 31}, 5*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.NewEngine(7)
	nw := simnet.New(tp, eng, simnet.Config{})
	owned := prefix.MustParse("10.0.0.0/23")

	// --- Real feed servers over the sim ---
	risSvc := ris.New(nw, []ris.CollectorConfig{
		{Name: "rrc00", Peers: []bgp.ASN{topo.FirstASN + 10, topo.FirstASN + 30}, BatchDelay: 10 * time.Second},
	})
	risHTTP := http.Server{Handler: ris.NewServer(risSvc)}
	risLn, err := listen()
	if err != nil {
		log.Fatal(err)
	}
	go risHTTP.Serve(risLn)

	bmonSvc := bgpmon.New(nw, bgpmon.Config{
		Peers: []bgp.ASN{topo.FirstASN + 20}, MinDelay: 15 * time.Second, MaxDelay: 30 * time.Second,
	})
	bmonSrv, err := bgpmon.NewServer(bmonSvc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer bmonSrv.Close()

	// --- Controller with REST front end ---
	ctrl := controller.NewSim(nw, victim.Bind(nw))
	ctrlLn, err := listen()
	if err != nil {
		log.Fatal(err)
	}
	ctrlHTTP := http.Server{Handler: controller.NewRESTServer(ctrl)}
	go ctrlHTTP.Serve(ctrlLn)

	// --- ARTEMIS as a pure network client ---
	// Route injection goes through the controller's REST API, like a
	// remote daemon's would; the node's clock is the paced sim clock.
	start := time.Now()
	simNow := func() time.Duration { return time.Duration(float64(time.Since(start)) * scale) }
	node, err := artemis.New(&artemis.Config{
		Prefixes: []string{owned.String()},
		Origins:  []uint32{uint32(victim.ASN)},
		Sources: []artemis.SourceSpec{
			{Type: artemis.SourceRIS, URL: "ws://" + risLn.Addr().String() + "/v1/ws"},
			{Type: artemis.SourceBGPmon, Addr: bmonSrv.Addr()},
		},
		Mitigation: artemis.MitigationConfig{
			Controller:  "http://" + ctrlLn.Addr().String(),
			ConfigDelay: artemis.Duration(15 * float64(time.Second) / scale),
		},
	}, artemis.WithNow(simNow), artemis.WithLogf(func(string, ...any) {}))
	if err != nil {
		log.Fatal(err)
	}
	alerts := node.Subscribe(artemis.KindAlert, 8)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run(ctx) }()

	// --- Script: announce, hijack ---
	fmt.Println("feeds live:")
	fmt.Printf("  RIS websocket   ws://%s/v1/ws\n", risLn.Addr())
	fmt.Printf("  BGPmon XML      tcp://%s\n", bmonSrv.Addr())
	fmt.Printf("  controller REST http://%s/v1/routes\n\n", ctrlLn.Addr())

	victim.Announce(nw, owned)
	eng.After(3*time.Minute, func() {
		fmt.Printf("[sim %v] attacker AS%d hijacks %s\n", eng.Now().Round(time.Second), attacker.ASN, owned)
		attacker.Announce(nw, owned)
	})
	go eng.RunPaced(scale, 20*time.Minute, 2*time.Second)

	select {
	case ev, ok := <-alerts.C:
		if !ok {
			log.Fatalf("node stopped before any alert: %v", <-runDone)
		}
		a := ev.Alert
		fmt.Printf("[sim %v] ARTEMIS alert over the wire: %s hijack of %s by AS%d (via %s)\n",
			a.DetectedAt.Std().Round(time.Second), a.Type, a.Prefix, a.Origin, a.Source)
	case <-time.After(60 * time.Second):
		log.Fatal("no alert within a minute of wall time")
	}

	// Give mitigation time to flow through REST + sim convergence.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		if len(ctrl.Applied()) >= 2 {
			break
		}
	}
	acts := ctrl.Applied()
	if len(acts) == 0 {
		log.Fatal("controller never received the mitigation")
	}
	var names []string
	for _, a := range acts {
		names = append(names, a.Prefix.String())
	}
	fmt.Printf("[sim ~%v] controller applied mitigation: %s\n", eng.Now().Round(time.Second), strings.Join(names, ", "))
	eng.Stop()
	for _, src := range node.Health().Sources {
		fmt.Printf("  ingest %-10s %-8s events=%d dedup=%d reconnects=%d\n",
			src.Name, src.State, src.Events, src.DedupHits, src.Reconnects)
	}
	cancel()
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("done — hijack detected and mitigated entirely over real sockets.")
}

func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
