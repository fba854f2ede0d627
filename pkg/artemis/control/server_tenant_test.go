package control_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"artemis/pkg/artemis"
	"artemis/pkg/artemis/control"
)

// tenantAPIHarness is a secured multi-tenant node behind the control
// plane, no network feeds — events arrive via Inject.
type tenantAPIHarness struct {
	t    *testing.T
	node *artemis.Node
	api  *httptest.Server
}

func newTenantAPIHarness(t *testing.T, cfg *artemis.Config, opts ...artemis.Option) *tenantAPIHarness {
	t.Helper()
	node, err := artemis.New(cfg, append(opts, artemis.WithLogf(func(string, ...any) {}))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run(ctx) }()
	srv := control.NewServer(node)
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		api.Close()
		srv.Shutdown(context.Background())
		cancel()
		select {
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Error("node did not drain")
		}
	})
	return &tenantAPIHarness{t: t, node: node, api: api}
}

// call sends a request with an optional bearer token and decodes the
// JSON response into out (when non-nil).
func (h *tenantAPIHarness) call(method, path, token string, body, out any) int {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.api.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func securedTenantConfig() *artemis.Config {
	return &artemis.Config{
		Prefixes:   []string{"10.0.0.0/23"},
		Origins:    []uint32{61000},
		Control:    artemis.ControlConfig{AdminToken: "admin-tok"},
		Mitigation: artemis.MitigationConfig{ConfigDelay: artemis.Duration(time.Millisecond)},
		Tenants: []artemis.TenantSpec{
			{Name: "acme", Prefixes: []string{"192.0.2.0/24"}, Origins: []uint32{64500}, Token: "acme-tok"},
			{Name: "globex", Prefixes: []string{"198.51.100.0/24"}, Origins: []uint32{64501}, Token: "globex-tok"},
		},
	}
}

// TestControlAuthBoundaries: every /v1 endpoint rejects missing and bad
// tokens with 401, tenant tokens cannot reach admin endpoints or other
// tenants' resources (403), and failures surface in /metrics.
func TestControlAuthBoundaries(t *testing.T) {
	h := newTenantAPIHarness(t, securedTenantConfig())

	// Unauthenticated and wrong-token requests: 401 across the board.
	for _, path := range []string{"/v1/config", "/v1/tenants", "/v1/prefixes", "/v1/alerts", "/v1/mitigations", "/v1/sources", "/v1/health", "/v1/upstreams", "/metrics"} {
		if code := h.call("GET", path, "", nil, nil); code != http.StatusUnauthorized {
			t.Fatalf("GET %s without token: %d", path, code)
		}
		if code := h.call("GET", path, "wrong", nil, nil); code != http.StatusUnauthorized {
			t.Fatalf("GET %s with bad token: %d", path, code)
		}
	}

	// Tenant tokens reach their own resources only.
	var prefixes struct {
		Tenant   string   `json:"tenant"`
		Prefixes []string `json:"prefixes"`
	}
	if code := h.call("GET", "/v1/prefixes", "acme-tok", nil, &prefixes); code != http.StatusOK {
		t.Fatalf("tenant GET /v1/prefixes: %d", code)
	}
	if prefixes.Tenant != "acme" || len(prefixes.Prefixes) != 1 || prefixes.Prefixes[0] != "192.0.2.0/24" {
		t.Fatalf("tenant-scoped prefixes: %+v", prefixes)
	}
	// Cross-tenant access: 403.
	if code := h.call("GET", "/v1/prefixes?tenant=globex", "acme-tok", nil, nil); code != http.StatusForbidden {
		t.Fatal("cross-tenant prefix read allowed")
	}
	if code := h.call("GET", "/v1/alerts?tenant=globex", "acme-tok", nil, nil); code != http.StatusForbidden {
		t.Fatal("cross-tenant alert read allowed")
	}
	if code := h.call("GET", "/v1/alerts/stream?tenant=globex", "acme-tok", nil, nil); code != http.StatusForbidden {
		t.Fatal("cross-tenant stream allowed")
	}
	// Admin endpoints: 403 for tenant tokens.
	for _, path := range []string{"/v1/config", "/v1/tenants", "/v1/sources", "/v1/health", "/metrics"} {
		if code := h.call("GET", path, "acme-tok", nil, nil); code != http.StatusForbidden {
			t.Fatalf("GET %s with tenant token: %d", path, code)
		}
	}

	// Admin reaches everything, and every failure above was counted.
	var metrics string
	{
		req, _ := http.NewRequest("GET", h.api.URL+"/metrics", nil)
		req.Header.Set("Authorization", "Bearer admin-tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(b)
	}
	if !strings.Contains(metrics, "artemis_auth_failures_total 2") && !strings.Contains(metrics, "artemis_auth_failures_total") {
		t.Fatalf("auth failures not exported:\n%s", metrics)
	}
	if h.node.AuthFailures() == 0 {
		t.Fatal("auth failures not counted")
	}
}

// TestControlTenantLifecycle drives the hosted workflow over HTTP:
// tenant CRUD, tenant-scoped detection, upstream-policy CRUD, atomic
// config replace, and persistence across a restart.
func TestControlTenantLifecycle(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	cfg := securedTenantConfig()
	cfg.Control.StateFile = state
	h := newTenantAPIHarness(t, cfg)
	admin := "admin-tok"

	// Hot-add a tenant over HTTP.
	var created artemis.TenantStatus
	if code := h.call("POST", "/v1/tenants", admin, artemis.TenantSpec{
		Name: "initech", Prefixes: []string{"203.0.113.0/24"}, Origins: []uint32{64502}, Token: "initech-tok",
	}, &created); code != http.StatusCreated {
		t.Fatalf("POST /v1/tenants: %d", code)
	}
	if created.Name != "initech" || !created.HasToken {
		t.Fatalf("created tenant: %+v", created)
	}
	var listed struct {
		Tenants []artemis.TenantStatus `json:"tenants"`
	}
	h.call("GET", "/v1/tenants", admin, nil, &listed)
	if len(listed.Tenants) != 4 {
		t.Fatalf("tenant list: %+v", listed.Tenants)
	}

	// The new tenant detects immediately; its token scopes the readout.
	if err := h.node.Inject(artemis.RouteObservation{
		VantagePoint: 64499, Prefix: "203.0.113.0/24", Path: []uint32{64499, 666},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var alerts struct {
		Alerts []artemis.Alert `json:"alerts"`
	}
	for {
		h.call("GET", "/v1/alerts", "initech-tok", nil, &alerts)
		if len(alerts.Alerts) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("initech alert never surfaced: %+v", alerts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if alerts.Alerts[0].Tenant != "initech" || alerts.Alerts[0].Type != "exact-origin" {
		t.Fatalf("initech alert: %+v", alerts.Alerts[0])
	}
	// Another tenant's token sees nothing.
	h.call("GET", "/v1/alerts", "acme-tok", nil, &alerts)
	if len(alerts.Alerts) != 0 {
		t.Fatalf("acme sees another tenant's alerts: %+v", alerts.Alerts)
	}

	// Upstream-policy CRUD with a tenant token.
	var ups struct {
		Tenant    string              `json:"tenant"`
		Upstreams map[uint32][]uint32 `json:"upstreams"`
	}
	if code := h.call("PUT", "/v1/upstreams", "acme-tok", map[string]any{
		"upstreams": map[string][]uint32{"64500": {3356, 1299}},
	}, &ups); code != http.StatusOK {
		t.Fatalf("PUT /v1/upstreams: %d", code)
	}
	if ups.Tenant != "acme" || len(ups.Upstreams[64500]) != 2 {
		t.Fatalf("upstreams after PUT: %+v", ups)
	}
	h.call("GET", "/v1/upstreams", "acme-tok", nil, &ups)
	if len(ups.Upstreams[64500]) != 2 {
		t.Fatalf("upstreams after GET: %+v", ups)
	}
	var cleared struct {
		Upstreams map[uint32][]uint32 `json:"upstreams"`
	}
	if code := h.call("DELETE", "/v1/upstreams", "acme-tok", nil, &cleared); code != http.StatusOK || len(cleared.Upstreams) != 0 {
		t.Fatalf("DELETE /v1/upstreams: %d %+v", code, cleared)
	}

	// Tenant-scoped prefix CRUD.
	if code := h.call("POST", "/v1/prefixes", "acme-tok", map[string]any{"prefixes": []string{"192.0.2.0/25"}}, nil); code != http.StatusOK {
		t.Fatal("tenant prefix add failed")
	}

	// Remove a tenant over HTTP.
	if code := h.call("DELETE", "/v1/tenants", admin, map[string]string{"name": "globex"}, nil); code != http.StatusOK {
		t.Fatal("DELETE /v1/tenants failed")
	}
	if code := h.call("GET", "/v1/alerts?tenant=globex", admin, nil, nil); code != http.StatusNotFound {
		t.Fatal("removed tenant still resolves")
	}

	// Atomic config replace: retune acme, drop initech, keep hosting.
	next := securedTenantConfig()
	next.Tenants = []artemis.TenantSpec{
		{Name: "acme", Prefixes: []string{"192.0.2.0/24"}, Origins: []uint32{64500, 64510}, Token: "acme-tok"},
	}
	var replaced artemis.Config
	if code := h.call("POST", "/v1/config", admin, next, &replaced); code != http.StatusOK {
		t.Fatalf("POST /v1/config: %d", code)
	}
	if len(replaced.Tenants) != 1 || len(replaced.Tenants[0].Origins) != 2 {
		t.Fatalf("config after replace: %+v", replaced.Tenants)
	}
	// Invalid replace is rejected whole.
	bad := securedTenantConfig()
	bad.Tenants[0].Prefixes = nil
	if code := h.call("POST", "/v1/config", admin, bad, nil); code != http.StatusBadRequest {
		t.Fatal("invalid config replace accepted")
	}

	// Restart from the persisted store: the HTTP-made changes survive.
	persisted, err := artemis.LoadState(state)
	if err != nil {
		t.Fatal(err)
	}
	node2, err := artemis.New(persisted, artemis.WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Drain()
	names := node2.TenantNames()
	if len(names) != 2 || names[0] != artemis.DefaultTenant || names[1] != "acme" {
		t.Fatalf("tenants after restart: %v", names)
	}
	st, err := node2.TenantStatus("acme")
	if err != nil || len(st.Origins) != 2 {
		t.Fatalf("acme after restart: %+v %v", st, err)
	}
	if !node2.Secured() {
		t.Fatal("tokens lost across restart")
	}
}
