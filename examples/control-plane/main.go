// Control-plane: live reconfiguration over HTTP while traffic flows.
//
// A simulated Internet (compressed 60x against the wall clock) exposes a
// real RIS websocket server, a real BGPmon XML server and an ONOS-style
// REST controller. An ARTEMIS node starts from a declarative config file
// — exactly what `artemisd -config artemis.yaml` does — watching ONE
// owned prefix over ONE feed. Then, with the daemon running and routes
// flowing, the operator uses the versioned HTTP control plane to:
//
//  1. hot-add a second owned prefix (POST /v1/prefixes), which atomically
//     swaps the detector's and the pipeline's routing tries,
//     the monitor's probe set and the mitigation clamps, and re-scopes
//     the live feed subscriptions;
//
//  2. hot-add a second feed (POST /v1/sources);
//
//  3. watch a subsequent hijack of the newly added prefix get detected
//     and mitigated — de-aggregated announcements through the
//     controller's REST API — with no restart anywhere.
//
//     go run ./examples/control-plane
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
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
	"artemis/pkg/artemis/control"
)

func main() {
	const scale = 60.0 // one simulated minute per wall second

	// --- Simulated Internet with a victim and an attacker ---
	gcfg := topo.DefaultGenConfig()
	gcfg.Stubs = 120
	tp, err := topo.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	stub0 := topo.FirstASN + bgp.ASN(gcfg.Tier1+gcfg.Transit)
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
	extra := prefix.MustParse("172.16.0.0/22")

	// --- Real feed servers + REST controller over the sim ---
	risSvc := ris.New(nw, []ris.CollectorConfig{
		{Name: "rrc00", Peers: []bgp.ASN{topo.FirstASN + 10, topo.FirstASN + 30}, BatchDelay: 10 * time.Second},
	})
	risLn := listen()
	go (&http.Server{Handler: ris.NewServer(risSvc)}).Serve(risLn)

	bmonSvc := bgpmon.New(nw, bgpmon.Config{
		Peers: []bgp.ASN{topo.FirstASN + 20}, MinDelay: 15 * time.Second, MaxDelay: 30 * time.Second,
	})
	bmonSrv, err := bgpmon.NewServer(bmonSvc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer bmonSrv.Close()

	ctrl := controller.NewSim(nw, victim.Bind(nw))
	ctrlLn := listen()
	go (&http.Server{Handler: controller.NewRESTServer(ctrl)}).Serve(ctrlLn)

	// --- The declarative config file artemisd would be started with ---
	yaml := fmt.Sprintf(`# artemis.yaml — one prefix, one feed; the rest arrives over HTTP
prefixes:
  - %s
origins: [%d]
sources:
  - type: ris
    url: ws://%s/v1/ws
mitigation:
  controller: http://%s
  config-delay: %s
`, owned, uint32(victim.ASN), risLn.Addr(), ctrlLn.Addr(), time.Duration(15*float64(time.Second)/scale))
	dir, err := os.MkdirTemp("", "artemis-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfgPath := filepath.Join(dir, "artemis.yaml")
	if err := os.WriteFile(cfgPath, []byte(yaml), 0o644); err != nil {
		log.Fatal(err)
	}
	cfg, err := artemis.LoadConfig(cfgPath)
	if err != nil {
		log.Fatal(err)
	}

	// --- The node + its HTTP control plane ---
	start := time.Now()
	simNow := func() time.Duration { return time.Duration(float64(time.Since(start)) * scale) }
	node, err := artemis.New(cfg,
		artemis.WithNow(simNow),
		artemis.WithLogf(func(string, ...any) {}))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run(ctx) }()
	srv := control.NewServer(node)
	apiLn := listen()
	go srv.Serve(apiLn)
	api := "http://" + apiLn.Addr().String()

	events := node.Subscribe(artemis.KindAlert|artemis.KindMitigation, 64)

	fmt.Println("live stack:")
	fmt.Printf("  RIS websocket   ws://%s/v1/ws\n", risLn.Addr())
	fmt.Printf("  BGPmon XML      tcp://%s\n", bmonSrv.Addr())
	fmt.Printf("  controller REST http://%s/v1/routes\n", ctrlLn.Addr())
	fmt.Printf("  control plane   %s/v1/...\n\n", api)
	fmt.Printf("artemisd started from %s: watching %s over 1 feed\n", filepath.Base(cfgPath), owned)

	// --- Script: both prefixes announced legitimately, sim runs paced ---
	victim.Announce(nw, owned)
	victim.Announce(nw, extra)
	go eng.RunPaced(scale, 30*time.Minute, 2*time.Second)

	waitUntil("RIS feed delivering", func() bool {
		for _, s := range getHealth(api).Sources {
			if s.State == "healthy" && s.Events > 0 {
				return true
			}
		}
		return false
	})

	// --- Operator hot-adds the second prefix and a second feed over HTTP ---
	post(api+"/v1/prefixes", map[string]any{"prefixes": []string{extra.String()}})
	fmt.Printf("[wall %4.1fs] POST /v1/prefixes: now also watching %s (no restart)\n",
		time.Since(start).Seconds(), extra)
	post(api+"/v1/sources", artemis.SourceSpec{Type: "bgpmon", Addr: bmonSrv.Addr()})
	fmt.Printf("[wall %4.1fs] POST /v1/sources: second feed (bgpmon) supervising\n", time.Since(start).Seconds())
	waitUntil("both feeds healthy", func() bool {
		healthy := 0
		for _, s := range getHealth(api).Sources {
			if s.State == "healthy" {
				healthy++
			}
		}
		return healthy == 2
	})

	// --- The attacker hijacks the hot-added prefix ---
	time.Sleep(2 * time.Second) // let the re-scoped subscriptions settle
	fmt.Printf("[sim %v] attacker AS%d hijacks %s\n", eng.Now().Round(time.Second), attacker.ASN, extra)
	attacker.Announce(nw, extra)

	var alert, mitigation *artemis.Event
	deadline := time.After(60 * time.Second)
	for alert == nil || mitigation == nil {
		select {
		case ev := <-events.C:
			switch {
			case ev.Kind == artemis.KindAlert && ev.Alert.Prefix == extra.String():
				alert = &ev
				fmt.Printf("[sim %v] ALERT over the wire: %s hijack of %s by AS%d (via %s)\n",
					ev.Alert.DetectedAt.Std().Round(time.Second), ev.Alert.Type,
					ev.Alert.Prefix, ev.Alert.Origin, ev.Alert.Source)
			case ev.Kind == artemis.KindMitigation && ev.Mitigation.Alert.Prefix == extra.String():
				mitigation = &ev
				fmt.Printf("[sim %v] mitigation dispatched: %s\n",
					ev.Mitigation.TriggeredAt.Std().Round(time.Second),
					strings.Join(ev.Mitigation.Prefixes, ", "))
			}
		case <-deadline:
			log.Fatal("hijack of the hot-added prefix was not detected+mitigated in time")
		}
	}

	// The controller's southbound applied the de-aggregated announcements.
	waitUntil("controller applied the de-aggregation", func() bool {
		return len(ctrl.Applied()) >= 2
	})
	var names []string
	for _, a := range ctrl.Applied() {
		names = append(names, a.Prefix.String())
	}
	fmt.Printf("[sim ~%v] controller applied: %s\n", eng.Now().Round(time.Second), strings.Join(names, ", "))

	// --- Wind down: verify the /v1 surface one last time, then drain ---
	var alerts struct {
		Alerts []artemis.Alert `json:"alerts"`
	}
	getJSON(api+"/v1/alerts", &alerts)
	fmt.Printf("\nGET /v1/alerts -> %d alert(s); GET /v1/health -> %q\n",
		len(alerts.Alerts), getHealth(api).Status)

	eng.Stop()
	cancel()
	<-runDone
	srv.Shutdown(context.Background())
	for _, s := range node.Health().Sources {
		fmt.Printf("  ingest %-10s %-8s events=%d dedup=%d reconnects=%d\n",
			s.Name, s.State, s.Events, s.DedupHits, s.Reconnects)
	}
	fmt.Println("done — prefix and feed hot-added over HTTP; hijack of the new prefix detected and mitigated with no restart.")
}

func listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return ln
}

func waitUntil(what string, cond func() bool) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}

func post(url string, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, e.Error)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getHealth(api string) artemis.Health {
	var h artemis.Health
	getJSON(api+"/v1/health", &h)
	return h
}
