package control_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"artemis/pkg/artemis"
)

// TestListBodiesMatchEncoder: GET /v1/alerts and GET /v1/mitigations
// stream one entry at a time, and their bodies are byte-identical to
// encoding the whole list with json.NewEncoder — for no, one and many
// entries, in admin scope (all tenants or one) and in a tenant token's
// scope. An unknown tenant still gets a plain 404.
func TestListBodiesMatchEncoder(t *testing.T) {
	h := newTenantAPIHarness(t, securedTenantConfig(), artemis.WithRouteInjector(&testInjector{}))
	check := func(stage string) {
		t.Helper()
		for _, c := range []struct{ path, token, tenant string }{
			{"/v1/alerts", "admin-tok", ""},
			{"/v1/alerts?tenant=acme", "admin-tok", "acme"},
			{"/v1/alerts", "acme-tok", "acme"},
			{"/v1/alerts", "globex-tok", "globex"},
			{"/v1/mitigations", "admin-tok", ""},
			{"/v1/mitigations?tenant=default", "admin-tok", "default"},
			{"/v1/mitigations", "acme-tok", "acme"},
		} {
			code, ctype, body := rawGet(t, h.api.URL+c.path, c.token)
			if code != http.StatusOK || ctype != "application/json" {
				t.Fatalf("%s: GET %s as %s: %d %q", stage, c.path, c.token, code, ctype)
			}
			if want := encodedList(t, h.node, c.path, c.tenant); !bytes.Equal(body, want) {
				t.Fatalf("%s: GET %s as %s:\n got  %s\n want %s", stage, c.path, c.token, body, want)
			}
		}
	}

	check("empty")
	inject(t, h, "192.0.2.0/24", 666)
	settle(t, h, 1)
	check("one")
	for i := 0; i < 12; i++ {
		inject(t, h, []string{"192.0.2.0/24", "198.51.100.0/24", "10.0.0.0/23"}[i%3], uint32(700+i))
	}
	settle(t, h, 13)
	check("many")

	for _, path := range []string{"/v1/alerts?tenant=nosuch", "/v1/mitigations?tenant=nosuch"} {
		code, ctype, body := rawGet(t, h.api.URL+path, "admin-tok")
		want := `{"error":"artemis: unknown tenant \"nosuch\""}` + "\n"
		if code != http.StatusNotFound || ctype != "application/json" || string(body) != want {
			t.Fatalf("GET %s: %d %q %s, want 404 with only %s", path, code, ctype, body, want)
		}
	}
}

func rawGet(t *testing.T, url, token string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// encodedList is the body the list endpoint answered with before it
// streamed: the whole list encoded at once.
func encodedList(t *testing.T, node *artemis.Node, path, tenant string) []byte {
	t.Helper()
	var key string
	var list any
	var err error
	switch {
	case bytes.HasPrefix([]byte(path), []byte("/v1/alerts")) && tenant == "":
		key, list = "alerts", node.Alerts()
	case bytes.HasPrefix([]byte(path), []byte("/v1/alerts")):
		key = "alerts"
		list, err = node.TenantAlerts(tenant)
	case tenant == "":
		key, list = "mitigations", node.Mitigations()
	default:
		key = "mitigations"
		list, err = node.TenantMitigations(tenant)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch l := list.(type) {
	case []artemis.Alert:
		if l == nil {
			list = []artemis.Alert{}
		}
	case []artemis.Mitigation:
		if l == nil {
			list = []artemis.Mitigation{}
		}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{key: list})
	return buf.Bytes()
}

func inject(t *testing.T, h *tenantAPIHarness, pfx string, origin uint32) {
	t.Helper()
	if err := h.node.Inject(artemis.RouteObservation{
		// The source name carries characters the encoder HTML-escapes.
		Source: "ris<&>", Collector: "rrc00", VantagePoint: 64499, Prefix: pfx, Path: []uint32{64499, origin},
	}); err != nil {
		t.Fatal(err)
	}
}

// settle waits until n alerts have been raised and each has a finished
// mitigation attempt, so two reads of the node see the same lists.
func settle(t *testing.T, h *tenantAPIHarness, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, m := range h.node.Mitigations() {
			if m.Error != "" || len(m.Announced) == len(m.Prefixes) {
				done++
			}
		}
		if len(h.node.Alerts()) == n && done == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d alerts, %d finished mitigations; want %d of each", len(h.node.Alerts()), done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
