// Live-feeds: the full networked stack over real sockets.
//
// The simulated Internet runs paced against the wall clock (compressed
// 60x) while real servers expose it: a RIS-style WebSocket stream, a
// BGPmon-style XML TCP stream, and an ONOS-style REST controller. An
// ARTEMIS instance connects to those servers as a *client* — exactly how
// the daemon would run against external infrastructure: the ingest
// supervisor owns both connections (reconnect, cross-source dedup,
// per-source accounting), fans them into the detection pipeline,
// and mitigation flows back through the controller's REST API.
//
//	go run ./examples/live-feeds
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/controller"
	"artemis/internal/core"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
	"artemis/internal/ingest"
	"artemis/internal/peering"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
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
	// The local controller handle is only used for timestamps; route
	// injection goes through REST like a remote daemon would.
	restInj := controller.NewRESTClient("http://" + ctrlLn.Addr().String())
	start := time.Now()
	simNow := func() time.Duration { return time.Duration(float64(time.Since(start)) * scale) }
	remoteCtrl := controller.NewReal(restInj, controller.WithConfigDelay(time.Duration(15*float64(time.Second)/scale)))
	artemis, err := core.NewService(&core.Config{
		OwnedPrefixes: []prefix.Prefix{owned},
		LegitOrigins:  []bgp.ASN{victim.ASN},
	}, remoteCtrl, simNow)
	if err != nil {
		log.Fatal(err)
	}
	// The supervised ingest tier dials both servers, redials them if they
	// drop, dedups route changes the two feeds both observe, and fans
	// everything into the pipeline.
	pl := core.NewPipeline(artemis.Detector, artemis.Monitor, core.PipelineConfig{})
	defer pl.Close()
	sup := ingest.New(pl.Submit, ingest.Config{})
	defer sup.Close()
	filter := feedtypes.Filter{Prefixes: []prefix.Prefix{owned}, MoreSpecific: true, LessSpecific: true}
	sup.AddDialer("ris[0]", ingest.RISDialer("ws://"+risLn.Addr().String()+"/v1/ws", filter))
	sup.AddDialer("bgpmon[0]", ingest.BGPmonDialer(bmonSrv.Addr(), filter))

	alerted := make(chan core.Alert, 1)
	artemis.Detector.OnAlert(func(a core.Alert) {
		select {
		case alerted <- a:
		default:
		}
	})

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
	case a := <-alerted:
		fmt.Printf("[sim %v] ARTEMIS alert over the wire: %s hijack of %s by AS%d (via %s)\n",
			a.DetectedAt.Round(time.Second), a.Type, a.Prefix, a.Origin, a.Evidence.Source)
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
	for _, src := range sup.Snapshot().Sources {
		fmt.Printf("  ingest %-10s %-8s events=%d dedup=%d reconnects=%d\n",
			src.Name, src.State, src.Events, src.DedupHits, src.Reconnects)
	}
	fmt.Println("done — hijack detected and mitigated entirely over real sockets.")
}

func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
