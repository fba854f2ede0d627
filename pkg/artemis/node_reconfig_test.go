package artemis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"artemis/pkg/artemis"
)

// reconfigs reads the node's applied reconfiguration barriers from its
// metrics.
func reconfigs(t *testing.T, node *artemis.Node) int64 {
	t.Helper()
	var sb strings.Builder
	node.WriteMetrics(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "artemis_pipeline_reconfigs_total "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("artemis_pipeline_reconfigs_total missing from metrics")
	return 0
}

// manyTenantConfig is a hosted node with the operator's own /23 plus
// extra customer tenants: 1+extra tenants in all.
func manyTenantConfig(extra int) *artemis.Config {
	cfg := &artemis.Config{Prefixes: []string{"10.0.0.0/23"}, Origins: []uint32{61000}}
	for i := 0; i < extra; i++ {
		cfg.Tenants = append(cfg.Tenants, artemis.TenantSpec{
			Name:     fmt.Sprintf("t%03d", i),
			Prefixes: []string{fmt.Sprintf("172.16.%d.0/24", i)},
			Origins:  []uint32{uint32(64600 + i)},
		})
	}
	return cfg
}

// TestEveryChangeIsOneBarrier: on a node with 101 tenants, every kind of
// live change — a one-tenant edit, tenant CRUD, a whole-config replace —
// costs exactly one pipeline barrier.
func TestEveryChangeIsOneBarrier(t *testing.T) {
	node, err := artemis.New(manyTenantConfig(100), quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()
	if got := len(node.TenantNames()); got != 101 {
		t.Fatalf("tenants = %d, want 101", got)
	}
	replaced := manyTenantConfig(100)
	replaced.Tenants[4].Prefixes = append(replaced.Tenants[4].Prefixes, "172.17.4.0/24")
	replaced.Tuning.AlertDedupMax = 512
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"AddTenantPrefixes", func() error { return node.AddTenantPrefixes("t000", "172.17.0.0/24") }},
		{"RemoveTenantPrefixes", func() error { return node.RemoveTenantPrefixes("t000", "172.17.0.0/24") }},
		{"SetTenantOrigins", func() error { return node.SetTenantOrigins("t001", 64999) }},
		{"SetUpstreams", func() error { return node.SetUpstreams("t002", map[uint32][]uint32{64602: {3356}}) }},
		{"SetTenantLimits", func() error {
			return node.SetTenantLimits("t003", artemis.TenantLimits{MaxEventsPerSec: 100})
		}},
		{"AddTenant", func() error {
			return node.AddTenant(artemis.TenantSpec{Name: "new", Prefixes: []string{"198.18.0.0/15"}, Origins: []uint32{64999}})
		}},
		{"RemoveTenant", func() error { return node.RemoveTenant("new") }},
		{"ReplaceConfig", func() error { return node.ReplaceConfig(replaced) }},
	} {
		before := reconfigs(t, node)
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if d := reconfigs(t, node) - before; d != 1 {
			t.Errorf("%s took %d barriers, want 1", op.name, d)
		}
	}
}

// TestPrefixMoveUnderLoadLosesNoEvents moves a prefix between two tenants
// with ReplaceConfig while another goroutine keeps injecting it. Every
// injected event must be matched by exactly one of the two tenants: the
// move is one table swap, so no event is routed under a half-applied
// configuration in which neither tenant owns the prefix.
func TestPrefixMoveUnderLoadLosesNoEvents(t *testing.T) {
	scopes := func(aOwns bool) *artemis.Config {
		a := artemis.TenantSpec{Name: "a", Prefixes: []string{"198.51.100.0/24"}, Origins: []uint32{64500}}
		b := artemis.TenantSpec{Name: "b", Prefixes: []string{"203.0.113.0/24"}, Origins: []uint32{64500}}
		if aOwns {
			a.Prefixes = append(a.Prefixes, "192.0.2.0/24")
		} else {
			b.Prefixes = append(b.Prefixes, "192.0.2.0/24")
		}
		return &artemis.Config{Tenants: []artemis.TenantSpec{a, b}}
	}
	node, err := artemis.New(scopes(true), quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()

	var injected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		obs := artemis.RouteObservation{VantagePoint: 64499, Prefix: "192.0.2.0/24", Path: []uint32{64499, 64500}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := node.Inject(obs); err != nil {
				t.Error(err)
				return
			}
			injected.Add(1)
		}
	}()
	for i := 0; i < 20; i++ {
		if err := node.ReplaceConfig(scopes(i%2 == 1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	matched := func() int64 {
		var sum int64
		for _, st := range node.Tenants() {
			sum += st.Events
		}
		return sum
	}
	deadline := time.Now().Add(5 * time.Second)
	for matched() != injected.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := matched(), injected.Load(); got != want {
		t.Fatalf("tenants matched %d of %d injected events: %d seen by no tenant", got, want, want-got)
	}
}

// TestRejectedReplaceChangesNothing: a replacement the core's policy
// table rejects (here an out-of-range de-aggregation clamp, which only
// the core validates) must leave the tenant set, the declarative config,
// the state file and the barrier count exactly as they were — including
// the tenant the rejected config would have dropped, which keeps
// detecting.
func TestRejectedReplaceChangesNothing(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	cfg := tenantTestConfig()
	cfg.Control.StateFile = state
	node, err := artemis.New(cfg, quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()
	if err := node.AddTenantPrefixes("acme", "203.0.113.0/24"); err != nil {
		t.Fatal(err) // writes the state file
	}

	names := node.TenantNames()
	cfgBefore, _ := json.Marshal(node.Config())
	stateBefore, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	barriers := reconfigs(t, node)

	bad := node.Config()
	bad.Tenants = bad.Tenants[:1] // drops globex
	bad.Mitigation.MaxDeaggLen = 40
	if err := node.ReplaceConfig(bad); err == nil {
		t.Fatal("ReplaceConfig accepted MaxDeaggLen 40")
	}

	if got := node.TenantNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("tenants %v after rejected replace, want %v", got, names)
	}
	if got, _ := json.Marshal(node.Config()); !bytes.Equal(got, cfgBefore) {
		t.Errorf("config changed by rejected replace:\n got %s\nwant %s", got, cfgBefore)
	}
	if got, _ := os.ReadFile(state); !bytes.Equal(got, stateBefore) {
		t.Errorf("state file changed by rejected replace:\n got %s\nwant %s", got, stateBefore)
	}
	if got := reconfigs(t, node); got != barriers {
		t.Errorf("rejected replace took %d barriers", got-barriers)
	}
	if err := node.Inject(artemis.RouteObservation{
		VantagePoint: 64499, Prefix: "198.51.100.0/24", Path: []uint32{64499, 666},
	}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "globex still alerting", func() bool {
		alerts, err := node.TenantAlerts("globex")
		return err == nil && len(alerts) == 1
	})
}

// TestInjectReachesEveryConsumer: an injected observation takes the same
// path as a source's batch, so besides alerting it is archived by the
// recorder and published on the event firehose.
func TestInjectReachesEveryConsumer(t *testing.T) {
	cfg := &artemis.Config{
		Prefixes: []string{"10.0.0.0/23"},
		Origins:  []uint32{61000},
		Record:   artemis.RecordConfig{Path: filepath.Join(t.TempDir(), "events")},
	}
	node, err := artemis.New(cfg, quiet())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := node.SubscribeEvents("", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Inject(artemis.RouteObservation{
		VantagePoint: 64499, Prefix: "10.0.0.0/24", Path: []uint32{64499, 666},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-stream.Events():
		if ev.Prefix.String() != "10.0.0.0/24" {
			t.Fatalf("firehose event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected event never reached the firehose")
	}
	waitCond(t, "alert", func() bool { return len(node.Alerts()) == 1 })
	node.Drain() // the recorder flushes
	if snap, ok := node.RecordStatus(); !ok || snap.Events != 1 {
		t.Fatalf("recorder archived %+v, want 1 event", snap)
	}
}

// TestROARefreshIsOneBarrier serves the ROA export over HTTP with a short
// refresh interval and changes it while the node runs: on a node with
// 101 tenants each refresh costs exactly one barrier, and the next alert
// carries the new table's verdict.
func TestROARefreshIsOneBarrier(t *testing.T) {
	var export atomic.Value
	export.Store(`{"roas": [{"asn": "AS64500", "prefix": "192.0.2.0/24", "maxLength": 24}]}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, export.Load().(string))
	}))
	defer srv.Close()

	// The logger pauses the refresh loop after each refresh until the test
	// resumes it, so barriers are counted between two known refreshes.
	refreshed, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	logf := artemis.WithLogf(func(format string, _ ...any) {
		if !strings.HasPrefix(format, "artemis: rpki table refreshed") {
			return
		}
		select {
		case refreshed <- struct{}{}:
			<-resume
		case <-done:
		}
	})
	cfg := manyTenantConfig(100)
	cfg.RPKI = artemis.RPKIConfig{URL: srv.URL, Refresh: artemis.Duration(20 * time.Millisecond)}
	node, err := artemis.New(cfg, logf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()
	defer func() {
		close(done)
		close(resume)
		cancel()
		<-runErr
	}()

	hijack := func(origin uint32) artemis.Alert {
		t.Helper()
		before := len(node.Alerts())
		if err := node.Inject(artemis.RouteObservation{
			VantagePoint: 64499, Prefix: "10.0.0.0/24", Path: []uint32{64499, origin},
		}); err != nil {
			t.Fatal(err)
		}
		waitCond(t, "hijack alert", func() bool { return len(node.Alerts()) > before })
		return node.Alerts()[before]
	}
	wait := func() {
		t.Helper()
		select {
		case <-refreshed:
		case <-time.After(5 * time.Second):
			t.Fatal("no ROA refresh")
		}
	}

	wait()
	if a := hijack(666); a.RPKI != "unknown" {
		t.Fatalf("verdict under a table without the owned space: %q, want unknown", a.RPKI)
	}
	barriers := reconfigs(t, node)
	export.Store(`{"roas": [{"asn": "AS61000", "prefix": "10.0.0.0/23", "maxLength": 24}]}`)
	resume <- struct{}{}
	wait()
	if d := reconfigs(t, node) - barriers; d != 1 {
		t.Fatalf("ROA refresh took %d barriers on 101 tenants, want 1", d)
	}
	if a := hijack(667); a.RPKI != "invalid" {
		t.Fatalf("verdict after the refresh: %q, want invalid", a.RPKI)
	}
}
