package artemis_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"artemis/pkg/artemis"
)

// gatedInjector blocks every southbound call until gate is closed, then
// records it: a controller that has stopped answering.
type gatedInjector struct {
	gate chan struct{}
	stringInjector
}

func (g *gatedInjector) AnnounceRoute(p string) error {
	<-g.gate
	return g.stringInjector.AnnounceRoute(p)
}

// hijacks returns one sub-prefix hijack observation per /24 of
// 10.0.0.0/14, n of them.
func hijacks(n int) []artemis.RouteObservation {
	obs := make([]artemis.RouteObservation, n)
	for i := range obs {
		obs[i] = artemis.RouteObservation{VantagePoint: 64499,
			Prefix: fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff), Path: []uint32{64499, 666}}
	}
	return obs
}

// TestNodeHangingSouthbound: while the controller answers nothing, alerts
// on 1,000 distinct prefixes all reach a subscriber and are all handed to
// the southbound, and the node holds no goroutine per announcement. Once
// the controller answers, Drain sends every request that is due.
func TestNodeHangingSouthbound(t *testing.T) {
	const n = 1000
	inj := &gatedInjector{gate: make(chan struct{})}
	node, err := artemis.New(&artemis.Config{
		Prefixes:   []string{"10.0.0.0/14"},
		Origins:    []uint32{61000},
		Mitigation: artemis.MitigationConfig{ConfigDelay: -1},
	}, quiet(), artemis.WithRouteInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	sub := node.Subscribe(artemis.KindAlert, n)
	base := runtime.NumGoroutine()
	if err := node.Inject(hijacks(n)...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case <-sub.C:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d alerts reached the subscriber", i, n)
		}
	}
	waitCond(t, "every alert mitigated", func() bool { return len(node.Mitigations()) == n })
	if grew := runtime.NumGoroutine() - base; grew > 10 {
		t.Fatalf("goroutines grew by %d with %d announcements waiting on the southbound", grew, n)
	}
	close(inj.gate)
	node.Drain()
	if got := len(inj.all()); got != n {
		t.Fatalf("southbound received %d announcements after Drain, want %d", got, n)
	}
}

// TestNodeMitigationOrder: the southbound sees mitigation requests in
// alert-commit order, across tenants, both tenants' requests for a prefix
// they share included.
func TestNodeMitigationOrder(t *testing.T) {
	inj := &stringInjector{}
	node, err := artemis.New(&artemis.Config{
		Prefixes:   []string{"10.0.0.0/16", "10.1.0.0/23"},
		Origins:    []uint32{61000},
		Mitigation: artemis.MitigationConfig{ConfigDelay: -1},
		Tenants: []artemis.TenantSpec{{
			Name: "customer", Prefixes: []string{"10.0.0.0/16", "10.2.0.0/23"}, Origins: []uint32{61000},
		}},
	}, quiet(), artemis.WithRouteInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	// Shared sub-prefix hijacks interleaved with exact-origin hijacks that
	// only one tenant owns, in several batches.
	var obs []artemis.RouteObservation
	for i := 0; i < 12; i++ {
		obs = append(obs, artemis.RouteObservation{VantagePoint: 64499,
			Prefix: fmt.Sprintf("10.0.%d.0/24", i), Path: []uint32{64499, 666}})
		exact := "10.1.0.0/23"
		if i%2 == 1 {
			exact = "10.2.0.0/23"
		}
		obs = append(obs, artemis.RouteObservation{VantagePoint: 64499,
			Prefix: exact, Path: []uint32{64499, uint32(700 + i)}})
	}
	for i := 0; i < len(obs); i += 5 {
		if err := node.Inject(obs[i:min(i+5, len(obs))]...); err != nil {
			t.Fatal(err)
		}
	}
	const want = 12*2 + 12 // each shared hijack twice, each exact-origin once
	waitCond(t, "every alert mitigated", func() bool { return len(node.Mitigations()) == want })
	waitCond(t, "every announcement sent", func() bool { return sent(node, inj) })
	node.Drain()

	// Commit order: observations in order, and for one observation the
	// tenants in table order.
	byTenant := map[string][]artemis.Mitigation{}
	for _, m := range node.Mitigations() {
		byTenant[m.Alert.Tenant] = append(byTenant[m.Alert.Tenant], m)
	}
	var expect []string
	for _, o := range obs {
		for _, name := range node.TenantNames() {
			if ms := byTenant[name]; len(ms) > 0 && ms[0].Alert.Prefix == o.Prefix {
				expect = append(expect, ms[0].Announced...)
				byTenant[name] = ms[1:]
			}
		}
	}
	if got := inj.all(); !slices.Equal(got, expect) {
		t.Fatalf("southbound order\n got %v\nwant %v", got, expect)
	}
}

// TestNodeOneMitigationLane: a 100-tenant node starts as many goroutines
// as a 1-tenant node — one mitigation worker and one southbound lane,
// not one of each per tenant.
func TestNodeOneMitigationLane(t *testing.T) {
	started := func(extra int) int {
		base := runtime.NumGoroutine()
		node, err := artemis.New(manyTenantConfig(extra), quiet(), artemis.WithRouteInjector(&stringInjector{}))
		if err != nil {
			t.Fatal(err)
		}
		defer node.Drain()
		return runtime.NumGoroutine() - base
	}
	one, hundred := started(0), started(99)
	if hundred > one+2 {
		t.Fatalf("a 100-tenant node started %d goroutines, a 1-tenant node %d", hundred, one)
	}
}
