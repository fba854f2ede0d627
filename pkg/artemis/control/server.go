// Package control serves an artemis.Node's operator API over versioned
// HTTP: configuration introspection, live reconfiguration (tenant,
// owned-prefix, upstream-policy and source CRUD), health, alert history,
// a server-sent-event stream of the node's typed events, and the
// Prometheus-style /metrics endpoint — all on one gracefully-shut-down
// server.
//
//	GET    /v1/config         current declarative config (JSON)    [admin]
//	POST   /v1/config         atomic full-config replace           [admin]
//	GET    /v1/tenants        tenant statuses                      [admin]
//	POST   /v1/tenants        TenantSpec JSON — hot-add            [admin]
//	DELETE /v1/tenants        {"name": "acme"} — hot-remove        [admin]
//	GET    /v1/prefixes       owned prefixes           [tenant-scoped]
//	POST   /v1/prefixes       {"prefixes": [...]} — hot-add        [tenant-scoped]
//	DELETE /v1/prefixes       {"prefixes": [...]} — hot-remove     [tenant-scoped]
//	GET    /v1/upstreams      path-anomaly neighbor policy         [tenant-scoped]
//	PUT    /v1/upstreams      {"upstreams": {"64500": [3356]}}     [tenant-scoped]
//	DELETE /v1/upstreams      clear the policy                     [tenant-scoped]
//	GET    /v1/sources        supervised sources with health       [admin]
//	POST   /v1/sources        SourceSpec JSON — hot-add            [admin]
//	DELETE /v1/sources        {"name": "ris[0]"} — hot-remove      [admin]
//	GET    /v1/health         overall + per-source health summary  [admin]
//	GET    /v1/alerts         alert history                        [tenant-scoped]
//	GET    /v1/mitigations    mitigation attempt history           [tenant-scoped]
//	GET    /v1/alerts/stream  SSE stream (?kinds=..., ?tenant=...) [tenant-scoped]
//	GET    /v1/events/stream  SSE firehose of post-dedup feed events [tenant-scoped]
//	GET    /v1/lookup/{prefix} glass-style best-route lookup       [tenant-scoped]
//	GET    /v1/as/{asn}       AS name/locale + originated counts   [tenant-scoped]
//	GET    /metrics           Prometheus text exposition           [admin]
//
// # Authentication
//
// With no tokens configured the API is open (the single-operator
// back-compat mode). Once Control.AdminToken or any tenant Token is set,
// every request needs "Authorization: Bearer <token>": the admin token
// grants everything, a tenant token grants that tenant's [tenant-scoped]
// endpoints only. Tenant-scoped endpoints take ?tenant=<name> (admin
// default: the "default" tenant for CRUD, all tenants for read-outs); a
// tenant token is pinned to its own tenant and cannot name another.
// Failures are observable — counted in artemis_auth_failures_total and
// published as auth events — and return 401 (bad or missing token) or
// 403 (authenticated but out of scope).
package control

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"artemis/internal/feeds/eventlog"
	"artemis/pkg/artemis"
)

// Server is the control plane over one node.
type Server struct {
	node *artemis.Node
	mux  *http.ServeMux
	http *http.Server

	// done ends live streams (SSE) so Shutdown's handler-drain completes.
	done     chan struct{}
	doneOnce sync.Once

	// cache absorbs repeated glass lookups (lookup.go); its hit/miss
	// counters are appended to /metrics.
	cache *respCache

	mu sync.Mutex
	ln net.Listener
}

// authedHandler is a handler that runs with a resolved credential scope.
type authedHandler func(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope)

// NewServer builds the control plane for node.
func NewServer(node *artemis.Node) *Server {
	s := &Server{node: node, mux: http.NewServeMux(), done: make(chan struct{}), cache: newRespCache()}
	admin := s.admin
	scoped := s.scoped
	s.mux.HandleFunc("GET /v1/config", admin(s.getConfig))
	s.mux.HandleFunc("POST /v1/config", admin(s.postConfig))
	s.mux.HandleFunc("GET /v1/tenants", admin(s.getTenants))
	s.mux.HandleFunc("POST /v1/tenants", admin(s.postTenants))
	s.mux.HandleFunc("DELETE /v1/tenants", admin(s.deleteTenants))
	s.mux.HandleFunc("GET /v1/prefixes", scoped(s.getPrefixes))
	s.mux.HandleFunc("POST /v1/prefixes", scoped(s.postPrefixes))
	s.mux.HandleFunc("DELETE /v1/prefixes", scoped(s.deletePrefixes))
	s.mux.HandleFunc("GET /v1/upstreams", scoped(s.getUpstreams))
	s.mux.HandleFunc("PUT /v1/upstreams", scoped(s.putUpstreams))
	s.mux.HandleFunc("DELETE /v1/upstreams", scoped(s.deleteUpstreams))
	s.mux.HandleFunc("GET /v1/sources", admin(s.getSources))
	s.mux.HandleFunc("POST /v1/sources", admin(s.postSources))
	s.mux.HandleFunc("DELETE /v1/sources", admin(s.deleteSources))
	s.mux.HandleFunc("GET /v1/health", admin(s.getHealth))
	s.mux.HandleFunc("GET /v1/alerts", scoped(s.getAlerts))
	s.mux.HandleFunc("GET /v1/mitigations", scoped(s.getMitigations))
	s.mux.HandleFunc("GET /v1/alerts/stream", scoped(s.streamEvents))
	s.mux.HandleFunc("GET /v1/events/stream", scoped(s.streamFeed))
	s.mux.HandleFunc("GET /v1/lookup/{prefix...}", scoped(s.getLookup))
	s.mux.HandleFunc("GET /v1/as/{asn}", scoped(s.getAS))
	s.mux.HandleFunc("GET /metrics", admin(s.getMetrics))
	s.http = &http.Server{Handler: s.mux}
	return s
}

// authenticate resolves the request's bearer token, rejecting (401 +
// reported failure) when it does not resolve.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (artemis.AuthScope, bool) {
	token, reason := "", "missing-token"
	if h := r.Header.Get("Authorization"); h != "" {
		if t, ok := strings.CutPrefix(h, "Bearer "); ok {
			token, reason = t, "bad-token"
		}
	}
	scope, ok := s.node.Authenticate(token)
	if !ok {
		s.node.ReportAuthFailure(r.URL.Path, "", reason)
		writeError(w, http.StatusUnauthorized, "unauthorized")
		return artemis.AuthScope{}, false
	}
	return scope, true
}

// admin wraps a handler that requires the admin scope.
func (s *Server) admin(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		scope, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		if !scope.Admin {
			s.node.ReportAuthFailure(r.URL.Path, scope.Tenant, "forbidden")
			writeError(w, http.StatusForbidden, "admin scope required")
			return
		}
		h(w, r, scope)
	}
}

// scoped wraps a tenant-scoped handler: admin or tenant tokens pass; the
// handler resolves which tenant the request targets via tenantParam.
func (s *Server) scoped(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		scope, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		h(w, r, scope)
	}
}

// tenantParam resolves which tenant a tenant-scoped request targets:
// the ?tenant= query parameter, or the token's own tenant, or — for an
// admin with no parameter — fallback ("" means "all"/"default" per
// endpoint). A tenant token naming another tenant is rejected (403 +
// reported failure).
func (s *Server) tenantParam(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope, fallback string) (string, bool) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		if scope.Tenant != "" {
			return scope.Tenant, true
		}
		return fallback, true
	}
	if !scope.Allows(tenant) {
		s.node.ReportAuthFailure(r.URL.Path, tenant, "forbidden")
		writeError(w, http.StatusForbidden, "token not valid for tenant %q", tenant)
		return "", false
	}
	return tenant, true
}

// Handler exposes the API for embedders that mount it on their own
// server (httptest, an existing mux). Streams served this way still end
// on Shutdown.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return s.http.Serve(ln)
}

// Addr reports the bound listen address, once serving.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully: live event streams end, in-flight
// requests complete, then the listener closes. Part of the daemon's
// SIGINT/SIGTERM drain path.
func (s *Server) Shutdown(ctx context.Context) error {
	s.doneOnce.Do(func() { close(s.done) })
	return s.http.Shutdown(ctx)
}

// --- handlers ---

func (s *Server) getConfig(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	writeJSON(w, http.StatusOK, s.node.Config())
}

// postConfig atomically replaces the whole declarative config — the
// hosted deployment's tenant-store replace. Hot-tunable fields apply
// live; construction-time fields persist and apply on restart.
func (s *Server) postConfig(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	var cfg artemis.Config
	if !readJSON(w, r, &cfg) {
		return
	}
	if err := s.node.ReplaceConfig(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.node.Config())
}

func (s *Server) getTenants(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.node.Tenants()})
}

func (s *Server) postTenants(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	var spec artemis.TenantSpec
	if !readJSON(w, r, &spec) {
		return
	}
	if err := s.node.AddTenant(spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, _ := s.node.TenantStatus(spec.Name)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) deleteTenants(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	var body struct {
		Name string `json:"name"`
	}
	if !readJSON(w, r, &body) {
		return
	}
	if body.Name == "" {
		writeError(w, http.StatusBadRequest, "no tenant name given")
		return
	}
	if err := s.node.RemoveTenant(body.Name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": body.Name})
}

// scopePrefixes reads the named tenant's owned prefixes from the current
// config (the default tenant is the top-level list).
func (s *Server) scopePrefixes(tenant string) ([]string, bool) {
	cfg := s.node.Config()
	if tenant == artemis.DefaultTenant {
		return cfg.Prefixes, len(cfg.Prefixes) > 0
	}
	for _, t := range cfg.Tenants {
		if t.Name == tenant {
			return t.Prefixes, true
		}
	}
	return nil, false
}

func (s *Server) getPrefixes(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	prefixes, found := s.scopePrefixes(tenant)
	if !found {
		writeError(w, http.StatusNotFound, "unknown tenant %q", tenant)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "prefixes": prefixes})
}

// prefixesBody is the POST/DELETE /v1/prefixes payload.
type prefixesBody struct {
	Prefixes []string `json:"prefixes"`
}

func (s *Server) postPrefixes(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	var body prefixesBody
	if !readJSON(w, r, &body) {
		return
	}
	if len(body.Prefixes) == 0 {
		writeError(w, http.StatusBadRequest, "no prefixes given")
		return
	}
	if err := s.node.AddTenantPrefixes(tenant, body.Prefixes...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prefixes, _ := s.scopePrefixes(tenant)
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "prefixes": prefixes})
}

func (s *Server) deletePrefixes(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	var body prefixesBody
	if !readJSON(w, r, &body) {
		return
	}
	if len(body.Prefixes) == 0 {
		writeError(w, http.StatusBadRequest, "no prefixes given")
		return
	}
	if err := s.node.RemoveTenantPrefixes(tenant, body.Prefixes...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prefixes, _ := s.scopePrefixes(tenant)
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "prefixes": prefixes})
}

// upstreamsBody is the PUT /v1/upstreams payload. JSON object keys are
// strings, so origin ASNs arrive as decimal strings.
type upstreamsBody struct {
	Upstreams map[uint32][]uint32 `json:"upstreams"`
}

func (s *Server) getUpstreams(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	ups, err := s.node.Upstreams(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if ups == nil {
		ups = map[uint32][]uint32{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "upstreams": ups})
}

func (s *Server) putUpstreams(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	var body upstreamsBody
	if !readJSON(w, r, &body) {
		return
	}
	if err := s.node.SetUpstreams(tenant, body.Upstreams); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ups, _ := s.node.Upstreams(tenant)
	if ups == nil {
		ups = map[uint32][]uint32{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "upstreams": ups})
}

func (s *Server) deleteUpstreams(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, artemis.DefaultTenant)
	if !ok {
		return
	}
	if err := s.node.SetUpstreams(tenant, nil); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "upstreams": map[uint32][]uint32{}})
}

func (s *Server) getSources(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	writeJSON(w, http.StatusOK, map[string]any{"sources": s.node.Health().Sources})
}

func (s *Server) postSources(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	var spec artemis.SourceSpec
	if !readJSON(w, r, &spec) {
		return
	}
	name, err := s.node.AddSource(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": name})
}

func (s *Server) deleteSources(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	var body struct {
		Name string `json:"name"`
	}
	if !readJSON(w, r, &body) {
		return
	}
	if body.Name == "" {
		writeError(w, http.StatusBadRequest, "no source name given")
		return
	}
	if err := s.node.RemoveSource(body.Name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": body.Name})
}

func (s *Server) getHealth(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	h := s.node.Health()
	status := http.StatusOK
	if h.Status == "critical" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) getAlerts(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, "")
	if !ok {
		return
	}
	streamList(w, "alerts", func(fn func(artemis.Alert)) error { return s.node.EachAlert(tenant, fn) })
}

func (s *Server) getMitigations(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	tenant, ok := s.tenantParam(w, r, scope, "")
	if !ok {
		return
	}
	streamList(w, "mitigations", func(fn func(artemis.Mitigation)) error { return s.node.EachMitigation(tenant, fn) })
}

func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request, _ artemis.AuthScope) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.node.WriteMetrics(w)
	fmt.Fprintf(w, "artemis_lookup_cache_hits_total %d\n", s.cache.hits.Load())
	fmt.Fprintf(w, "artemis_lookup_cache_misses_total %d\n", s.cache.misses.Load())
}

// streamEvents serves the node's typed events as server-sent events:
// "event: <kind>" + "data: <json>" frames, with comment heartbeats to
// keep intermediaries from timing the stream out. ?kinds=alert,mitigation
// filters (default all); ?tenant= (or a tenant token) scopes the stream
// to one tenant's events behind its bounded per-tenant buffer.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	kinds, err := parseKinds(r.URL.Query().Get("kinds"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, ok := s.tenantParam(w, r, scope, "")
	if !ok {
		return
	}
	var sub *artemis.Subscription
	if tenant == "" {
		sub = s.node.Subscribe(kinds, 256) // admin, no parameter: everything
	} else {
		if sub, err = s.node.SubscribeTenant(tenant, kinds, 256); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": artemis event stream\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return // node drained
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
			flusher.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

// streamFeed serves the post-dedup feed event stream (the raw routing
// observations, before classification) as server-sent events. Each
// frame is "event: route" carrying one canonical envelope line —
// ["R", seq, time, type, data, meta], the same interchange form the
// event log records (docs/INTERCHANGE.md) — with seq assigned per
// subscription. ?tenant= (or a tenant token) scopes the stream to
// events matching that tenant's owned space; slow consumers shed
// events rather than backpressure ingest.
func (s *Server) streamFeed(w http.ResponseWriter, r *http.Request, scope artemis.AuthScope) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	tenant, ok := s.tenantParam(w, r, scope, "")
	if !ok {
		return
	}
	sub, err := s.node.SubscribeEvents(tenant, 256)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": artemis feed event stream\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	var seq uint64
	var buf []byte
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return // node drained
			}
			seq++
			buf = append(buf[:0], "event: route\ndata: "...)
			buf = eventlog.AppendRecord(buf, eventlog.Record{Seq: seq, Event: ev})
			buf = append(buf, '\n') // envelope ends with \n; SSE frames end with a blank line
			w.Write(buf)
			flusher.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

func parseKinds(q string) (artemis.EventKind, error) {
	if q == "" {
		return artemis.KindAll, nil
	}
	var kinds artemis.EventKind
	for _, part := range strings.Split(q, ",") {
		switch strings.TrimSpace(part) {
		case "alert":
			kinds |= artemis.KindAlert
		case "mitigation":
			kinds |= artemis.KindMitigation
		case "health":
			kinds |= artemis.KindHealth
		case "limit":
			kinds |= artemis.KindLimit
		case "auth":
			kinds |= artemis.KindAuth
		default:
			return 0, fmt.Errorf("unknown event kind %q", part)
		}
	}
	return kinds, nil
}

// --- JSON helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// streamList answers 200 with {"<key>":[...]} holding every element
// each visits, encoded one at a time into the response so that neither
// the list nor its JSON is ever held whole. The body is byte-identical to
// writeJSON's for map[string]any{key: elements}. each reports its error
// (an unknown tenant) before visiting anything; that answers 404.
func streamList[T any](w http.ResponseWriter, key string, each func(func(T)) error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	open := func() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"`+key+`":[`)
	}
	n := 0
	err := each(func(v T) {
		if n == 0 {
			open()
		} else {
			buf.WriteByte(',')
		}
		n++
		enc.Encode(v)
		w.Write(buf.Bytes()[:buf.Len()-1]) // Encode ends each value with a newline
		buf.Reset()
	})
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if n == 0 {
		open()
	}
	io.WriteString(w, "]}\n")
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}
