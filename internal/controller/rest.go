package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"artemis/internal/prefix"
)

// The REST surface mirrors an ONOS-style application API:
//
//	POST /v1/routes  {"prefix":"10.0.0.0/24","action":"announce"}
//	GET  /v1/routes  → applied actions
//
// RESTClient implements RouteInjector over this API so an ARTEMIS daemon
// can drive a controller in another process.

type wireAction struct {
	Prefix      string  `json:"prefix"`
	Action      string  `json:"action"`
	RequestedAt float64 `json:"requested_at,omitempty"`
	AppliedAt   float64 `json:"applied_at,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// RESTServer exposes a Controller over HTTP.
type RESTServer struct{ ctrl *Controller }

// NewRESTServer wraps a controller.
func NewRESTServer(ctrl *Controller) *RESTServer { return &RESTServer{ctrl: ctrl} }

// ServeHTTP implements the API.
func (s *RESTServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/routes" {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodPost:
		var req wireAction
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request body", http.StatusBadRequest)
			return
		}
		p, err := prefix.Parse(req.Prefix)
		if err != nil {
			http.Error(w, "bad prefix", http.StatusBadRequest)
			return
		}
		kind := ActionKind(req.Action)
		if kind != ActionAnnounce && kind != ActionWithdraw {
			http.Error(w, "unknown action", http.StatusBadRequest)
			return
		}
		s.ctrl.Request(kind, p, nil)
		w.WriteHeader(http.StatusAccepted)
	case http.MethodGet:
		actions := s.ctrl.Actions()
		out := make([]wireAction, 0, len(actions))
		for _, a := range actions {
			wa := wireAction{
				Prefix:      a.Prefix.String(),
				Action:      string(a.Kind),
				RequestedAt: a.RequestedAt.Seconds(),
				AppliedAt:   a.AppliedAt.Seconds(),
			}
			if a.Err != nil {
				wa.Error = a.Err.Error()
			}
			out = append(out, wa)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Timeout bounds one RESTClient call, from dialing to reading the
// answer. A controller that accepts and never answers fails the call
// here, so the mitigation retry bound applies to it like to a refusal.
const Timeout = 5 * time.Second

// RESTClient drives a remote controller; it implements RouteInjector so
// the ARTEMIS mitigation service can use it directly. One http.Client
// with a timeout and a small idle pool carries every call.
type RESTClient struct {
	url string
	hc  http.Client
	// closedAt is Close's time in Unix nanoseconds, 0 before it.
	closedAt atomic.Int64
}

// NewRESTClient points at a RESTServer base URL (http://host:port).
func NewRESTClient(baseURL string) *RESTClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 2, 2
	return &RESTClient{url: baseURL + "/v1/routes", hc: http.Client{Timeout: Timeout, Transport: tr}}
}

// AnnounceRoute implements RouteInjector.
func (c *RESTClient) AnnounceRoute(p prefix.Prefix) error { return c.post(ActionAnnounce, p) }

// WithdrawRoute implements RouteInjector.
func (c *RESTClient) WithdrawRoute(p prefix.Prefix) error { return c.post(ActionWithdraw, p) }

// Close bounds the calls still to come: each must end within one timeout
// of Close, as a call already in flight does. Calls stay allowed, so a
// Lane can still send what was due when it closed.
func (c *RESTClient) Close() error {
	c.closedAt.CompareAndSwap(0, time.Now().UnixNano())
	return nil
}

// post sends {"prefix":"…","action":"…"}, the bytes json.Marshal makes of
// a wireAction with only those two fields set: neither a prefix nor an
// action name has a character JSON escapes.
func (c *RESTClient) post(kind ActionKind, p prefix.Prefix) error {
	body := p.AppendText([]byte(`{"prefix":"`))
	body = append(append(append(body, `","action":"`...), kind...), `"}`...)
	ctx := context.Background()
	if at := c.closedAt.Load(); at != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, at).Add(c.hc.Timeout))
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("controller: HTTP %d", resp.StatusCode)
	}
	return err
}

var _ RouteInjector = (*RESTClient)(nil)
