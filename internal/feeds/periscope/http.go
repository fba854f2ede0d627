package periscope

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/simnet"
)

// Server exposes looking glasses over HTTP, Periscope-API style:
//
//	GET /lg                     → JSON list of LG ids
//	GET /lg/query?id=lg-1001&prefix=10.0.0.0/23 → JSON []LGRoute
//
// Queries executed over HTTP are serialized through the simulation engine
// (an LG reads live router state, which only the engine goroutine may
// touch), so the server is safe to use while the simulation runs paced.
type Server struct {
	nw  *simnet.Network
	lgs map[string]*LookingGlass
}

// NewServer registers an LG for each given AS.
func NewServer(nw *simnet.Network, asns []bgp.ASN) (*Server, error) {
	s := &Server{nw: nw, lgs: make(map[string]*LookingGlass)}
	for _, asn := range asns {
		lg, err := NewLookingGlass(nw, asn)
		if err != nil {
			return nil, err
		}
		s.lgs[lg.ID] = lg
	}
	return s, nil
}

type wireRoute struct {
	Prefix string   `json:"prefix"`
	Path   []uint32 `json:"path"`
	Origin uint32   `json:"origin"`
}

// ServeHTTP implements the two endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/lg":
		ids := make([]string, 0, len(s.lgs))
		for id := range s.lgs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		writeJSON(w, ids)
	case "/lg/query":
		s.handleQuery(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	lg, ok := s.lgs[r.URL.Query().Get("id")]
	if !ok {
		http.Error(w, "unknown looking glass", http.StatusNotFound)
		return
	}
	p, err := prefix.Parse(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, "bad prefix", http.StatusBadRequest)
		return
	}
	// Run the query inside the engine so it cannot race router state.
	resCh := make(chan []LGRoute, 1)
	s.nw.Engine.After(0, func() { resCh <- lg.Query(p) })
	var answers []LGRoute
	select {
	case answers = <-resCh:
	case <-time.After(5 * time.Second):
		http.Error(w, "simulation not running", http.StatusServiceUnavailable)
		return
	}
	out := make([]wireRoute, 0, len(answers))
	for _, a := range answers {
		wr := wireRoute{Prefix: a.Prefix.String(), Origin: uint32(a.Origin)}
		for _, asn := range a.Path {
			wr.Path = append(wr.Path, uint32(asn))
		}
		out = append(out, wr)
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// QueryTimeout bounds one client call, from dialing to reading the
// answer, so a looking glass that never answers cannot hold its reader.
const QueryTimeout = 30 * time.Second

// client carries every HTTPQuery and HTTPListLGs call.
var client = &http.Client{Timeout: QueryTimeout}

// get fetches url within QueryTimeout, or until ctx is done.
func get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

// HTTPQuery performs one LG query against a Server base URL; it is the
// client half used by the live daemon. Cancelling ctx abandons it.
func HTTPQuery(ctx context.Context, baseURL, lgID string, p prefix.Prefix) ([]LGRoute, error) {
	resp, err := get(ctx, fmt.Sprintf("%s/lg/query?id=%s&prefix=%s", baseURL, lgID, p))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("periscope: query %s: HTTP %d", lgID, resp.StatusCode)
	}
	var wires []wireRoute
	if err := json.NewDecoder(resp.Body).Decode(&wires); err != nil {
		return nil, err
	}
	out := make([]LGRoute, 0, len(wires))
	for _, wr := range wires {
		pp, err := prefix.Parse(wr.Prefix)
		if err != nil {
			return nil, err
		}
		route := LGRoute{Prefix: pp, Origin: bgp.ASN(wr.Origin)}
		for _, asn := range wr.Path {
			route.Path = append(route.Path, bgp.ASN(asn))
		}
		out = append(out, route)
	}
	return out, nil
}

// HTTPListLGs fetches the LG inventory from a Server.
func HTTPListLGs(ctx context.Context, baseURL string) ([]string, error) {
	resp, err := get(ctx, baseURL+"/lg")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		return nil, err
	}
	return ids, nil
}
