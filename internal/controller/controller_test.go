package controller

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func simSetup(t *testing.T) (*simnet.Network, *sim.Engine) {
	t.Helper()
	tp := topo.Line(3, time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	return nw, eng
}

func TestSimControllerAppliesAfterConfigDelay(t *testing.T) {
	nw, eng := simSetup(t)
	inj, err := NewSimInjector(nw, topo.FirstASN)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewSim(nw, inj) // default 15s config delay
	p := prefix.MustParse("10.0.0.0/24")
	if err := ctrl.Announce(p); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(14 * time.Second)
	if _, ok := nw.Node(topo.FirstASN).BestRoute(p); ok {
		t.Fatal("route applied before config delay elapsed")
	}
	eng.Run()
	if _, ok := nw.Node(topo.FirstASN + 2).BestRoute(p); !ok {
		t.Fatal("route not propagated after config delay")
	}
	acts := ctrl.Actions()
	if len(acts) != 1 || acts[0].Kind != ActionAnnounce {
		t.Fatalf("actions = %+v", acts)
	}
	if lag := acts[0].AppliedAt - acts[0].RequestedAt; lag != 15*time.Second {
		t.Fatalf("config latency = %v, want 15s", lag)
	}
}

func TestControllerWithdraw(t *testing.T) {
	nw, eng := simSetup(t)
	inj, _ := NewSimInjector(nw, topo.FirstASN)
	ctrl := NewSim(nw, inj, WithConfigDelay(time.Second))
	p := prefix.MustParse("10.0.0.0/24")
	ctrl.Announce(p)
	eng.Run()
	ctrl.Withdraw(p)
	eng.Run()
	if _, ok := nw.Node(topo.FirstASN + 2).BestRoute(p); ok {
		t.Fatal("route still present after withdraw")
	}
}

func TestSimInjectorValidation(t *testing.T) {
	nw, _ := simSetup(t)
	if _, err := NewSimInjector(nw); err == nil {
		t.Fatal("empty AS list accepted")
	}
	if _, err := NewSimInjector(nw, 9999); err == nil {
		t.Fatal("unknown AS accepted")
	}
}

func TestMultiSiteInjection(t *testing.T) {
	nw, eng := simSetup(t)
	inj, _ := NewSimInjector(nw, topo.FirstASN, topo.FirstASN+2)
	ctrl := NewSim(nw, inj, WithConfigDelay(time.Second))
	p := prefix.MustParse("10.0.0.0/24")
	ctrl.Announce(p)
	eng.Run()
	for _, off := range []bgp.ASN{0, 2} {
		r, ok := nw.Node(topo.FirstASN + off).BestRoute(p)
		if !ok || !r.Local() {
			t.Fatalf("site +%d should originate locally: %v %v", off, r, ok)
		}
	}
}

// brokenInjector rejects everything — the southbound-down scenario.
type brokenInjector struct{ calls int }

func (b *brokenInjector) AnnounceRoute(prefix.Prefix) error {
	b.calls++
	return errors.New("session down")
}
func (b *brokenInjector) WithdrawRoute(prefix.Prefix) error {
	b.calls++
	return errors.New("session down")
}

// TestFailedActionsRecorded: injector failures must surface in Actions
// (flagged, with the error) and in the failure counter — not vanish.
func TestFailedActionsRecorded(t *testing.T) {
	_, eng := simSetup(t)
	inj := &brokenInjector{}
	ctrl := New(inj, eng.Now, eng.After, WithConfigDelay(time.Second))
	var results []Action
	ctrl.OnResult(func(a Action) { results = append(results, a) })
	p := prefix.MustParse("10.0.0.0/24")
	if err := ctrl.Announce(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("OnResult not notified of the failure: %+v", results)
	}
	acts := ctrl.Actions()
	if len(acts) != 1 || !acts[0].Failed() || acts[0].Err == nil {
		t.Fatalf("failed action not recorded: %+v", acts)
	}
	if acts[0].AppliedAt != time.Second {
		t.Fatalf("failure time = %v", acts[0].AppliedAt)
	}
	if got := ctrl.Failures(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	if applied := ctrl.Applied(); len(applied) != 0 {
		t.Fatalf("failed action leaked into Applied: %+v", applied)
	}
}

func TestRESTServerAndClient(t *testing.T) {
	nw, eng := simSetup(t)
	inj, _ := NewSimInjector(nw, topo.FirstASN)
	ctrl := NewSim(nw, inj, WithConfigDelay(time.Second))
	hs := httptest.NewServer(NewRESTServer(ctrl))
	defer hs.Close()

	cli := NewRESTClient(hs.URL)
	p := prefix.MustParse("10.0.0.0/24")
	if err := cli.AnnounceRoute(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := nw.Node(topo.FirstASN + 2).BestRoute(p); !ok {
		t.Fatal("REST announce did not reach the network")
	}
	if err := cli.WithdrawRoute(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := nw.Node(topo.FirstASN + 2).BestRoute(p); ok {
		t.Fatal("REST withdraw did not reach the network")
	}
}

func TestRESTServerRejectsGarbage(t *testing.T) {
	nw, _ := simSetup(t)
	inj, _ := NewSimInjector(nw, topo.FirstASN)
	ctrl := NewSim(nw, inj)
	hs := httptest.NewServer(NewRESTServer(ctrl))
	defer hs.Close()

	for _, body := range []string{`not json`, `{"prefix":"bogus","action":"announce"}`, `{"prefix":"10.0.0.0/24","action":"dance"}`} {
		resp, err := http.Post(hs.URL+"/v1/routes", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q → HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}
