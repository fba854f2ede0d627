package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"artemis/benchmark/gen"
)

// announced is one POST /v1/routes the stub controller answered.
type announced struct {
	prefix string
	at     time.Time
}

// controller is the stub REST controller the daemon's mitigation drives:
// POST /v1/routes {"prefix","action"} → 202. It records when each
// announcement had been answered.
type controller struct {
	ln  net.Listener
	srv *http.Server

	mu    sync.Mutex
	posts []announced
}

func startController() (*controller, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &controller{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/routes", c.routes)
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln) // returns when close closes the listener
	return c, nil
}

func (c *controller) url() string { return "http://" + c.ln.Addr().String() }

func (c *controller) routes(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Prefix string `json:"prefix"`
		Action string `json:"action"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Action != "announce" {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	c.mu.Lock()
	c.posts = append(c.posts, announced{prefix: req.Prefix, at: time.Now()})
	c.mu.Unlock()
}

func (c *controller) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.posts)
}

func (c *controller) all() []announced {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]announced(nil), c.posts...)
}

func (c *controller) close() { c.srv.Close() }

// api is the daemon's control plane as a client sees it.
type api struct {
	base  string
	token string
	http  *http.Client
}

func newAPI(port int, token string) *api {
	return &api{
		base:  fmt.Sprintf("http://127.0.0.1:%d", port),
		token: token,
		// One client, keep-alive on: an operator's tooling reuses its
		// connections, and a fresh dial per request would time the
		// kernel's loopback handshake instead of the daemon.
		http: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
	}
}

func (a *api) do(ctx context.Context, method, path, token string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, body)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return a.http.Do(req)
}

// getJSON fetches path with the admin credential and decodes the body.
func (a *api) getJSON(ctx context.Context, path string, v any) error {
	resp, err := a.do(ctx, http.MethodGet, path, a.token, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sourceStatus is one entry of /v1/health.
type sourceStatus struct {
	Name       string `json:"name"`
	State      string `json:"state"`
	Events     int64  `json:"events"`
	DedupHits  int64  `json:"dedup_hits"`
	Drops      int64  `json:"drops"`
	RateShed   int64  `json:"rate_shed"`
	Reconnects int64  `json:"reconnects"`
}

type health struct {
	Status  string         `json:"status"`
	Sources []sourceStatus `json:"sources"`
}

func (a *api) health(ctx context.Context) (health, error) {
	var h health
	err := a.getJSON(ctx, "/v1/health", &h)
	return h, err
}

// alert is the subset of an alert the run compares and times.
type alert struct {
	Tenant string `json:"tenant"`
	Type   string `json:"type"`
	Prefix string `json:"prefix"`
	Owned  string `json:"owned"`
	Origin uint32 `json:"origin"`
}

func (al alert) incident() gen.Incident {
	return gen.Incident{Tenant: al.Tenant, Type: al.Type, Prefix: al.Prefix, Owned: al.Owned, Origin: al.Origin}
}

func (a *api) alerts(ctx context.Context) ([]alert, error) {
	var body struct {
		Alerts []alert `json:"alerts"`
	}
	err := a.getJSON(ctx, "/v1/alerts", &body)
	return body.Alerts, err
}

// metrics scrapes /metrics into sample-line → value.
func (a *api) metrics(ctx context.Context) (promSamples, error) {
	resp, err := a.do(ctx, http.MethodGet, "/metrics", a.token, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(promSamples)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// promSamples is one scrape: the text before the value ("name" or
// "name{labels}") keys each sample.
type promSamples map[string]float64

// family calls fn with every sample of a family, whatever its labels.
func (p promSamples) family(name string, fn func(v float64)) {
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			fn(v)
		}
	}
}

// sum adds the samples of a family; count counts them; max is the
// largest (0 for an absent family: every family here counts something).
func (p promSamples) sum(name string) (total float64) {
	p.family(name, func(v float64) { total += v })
	return total
}

func (p promSamples) count(name string) (n int) {
	p.family(name, func(float64) { n++ })
	return n
}

func (p promSamples) max(name string) (best float64) {
	p.family(name, func(v float64) { best = max(best, v) })
	return best
}

// quantile estimates the q-quantile of a histogram family from its
// cumulative buckets, merged over every other label (shards, sources),
// interpolating linearly inside the bucket that holds it. Seconds in,
// seconds out; false when the family is absent or empty.
func (p promSamples) quantile(family string, q float64) (float64, bool) {
	byLE := make(map[float64]float64)
	for k, v := range p {
		if !strings.HasPrefix(k, family+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			continue // "+Inf" parses; anything else is not a bucket
		}
		byLE[le] += v
	}
	if len(byLE) == 0 {
		return 0, false
	}
	bounds := make([]float64, 0, len(byLE))
	for le := range byLE {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	total := byLE[bounds[len(bounds)-1]]
	if total == 0 {
		return 0, false
	}
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, le := range bounds {
		cum := byLE[le]
		if cum >= rank {
			if math.IsInf(le, 1) || cum == prevCum {
				return prevBound, true
			}
			return prevBound + (le-prevBound)*(rank-prevCum)/(cum-prevCum), true
		}
		prevBound, prevCum = le, cum
	}
	return prevBound, true
}

// sseEvent is one frame of /v1/alerts/stream, stamped when its data line
// was read.
type sseEvent struct {
	kind string
	data []byte
	at   time.Time
}

// subscribe opens /v1/alerts/stream for alerts and mitigation outcomes
// and delivers frames to fn until ctx ends or the stream closes. It
// returns once the daemon has accepted the subscription, so nothing sent
// afterwards can be missed.
func (a *api) subscribe(ctx context.Context, fn func(sseEvent)) error {
	// No client timeout: the stream lives as long as the run.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/v1/alerts/stream?kinds=alert", nil)
	if err != nil {
		return err
	}
	if a.token != "" {
		req.Header.Set("Authorization", "Bearer "+a.token)
	}
	resp, err := (&http.Client{Transport: a.http.Transport}).Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /v1/alerts/stream: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	// The handler subscribes before it writes its opening comment.
	if _, err := br.ReadString('\n'); err != nil {
		resp.Body.Close()
		return fmt.Errorf("alert stream: %w", err)
	}
	go func() {
		defer resp.Body.Close()
		var ev sseEvent
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			switch {
			case len(line) > 7 && string(line[:7]) == "event: ":
				ev.kind = strings.TrimSpace(string(line[7:]))
			case len(line) > 6 && string(line[:6]) == "data: ":
				ev.at = time.Now()
				ev.data = append([]byte(nil), line[6:]...)
			case len(line) <= 2 && ev.kind != "":
				fn(ev)
				ev = sseEvent{}
			}
		}
	}()
	return nil
}
