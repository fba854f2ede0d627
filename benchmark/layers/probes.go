package layers

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"artemis/benchmark/gen"
	"artemis/benchmark/wsfeed"
	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/controller"
	"artemis/internal/core"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
	"artemis/internal/rib"
	"artemis/internal/ring"
	"artemis/internal/rpki"
	"artemis/internal/ttlset"
	"artemis/internal/wsock"
	"artemis/pkg/artemis"
	"artemis/pkg/artemis/control"
)

// Options tunes the traced pass.
type Options struct {
	// Dir is an empty scratch directory.
	Dir string
	// Budget is the time each probe measures for (0 selects the default).
	Budget time.Duration
	// BatchEvents is the mean size of the batches the end-to-end run's
	// sources delivered; the ingest and pipeline probes replay the sample
	// in batches of that size.
	BatchEvents float64
	// DeliveredFrac is the share of offered events that reached the
	// pipeline end to end, and CPUNsPerEvent the daemon's CPU per offered
	// event there; together they weigh the layer table.
	DeliveredFrac float64
	CPUNsPerEvent float64
}

// defaultBudget keeps the whole pass around five seconds.
const defaultBudget = 100 * time.Millisecond

// pass is one traced pass over one workload's sample.
type pass struct {
	tr     *tracer
	root   int
	budget time.Duration
	dir    string

	in      *gen.Inputs
	groups  []gen.Group
	evs     []feedtypes.Event
	batches [][]feedtypes.Event
	filter  feedtypes.Filter
	union   *core.Config
	// Route-intelligence inputs of the lookup probes (glassFiles).
	snapshot, roas []byte
	keys           []gen.Lookup

	metrics map[string]float64
}

// Run pushes the sample through every layer and returns the per-layer
// metrics, the layer table and the spans.
func Run(in *gen.Inputs, s *Sample, opt Options) (*Report, error) {
	if len(s.Groups) == 0 {
		return nil, fmt.Errorf("layers: empty sample")
	}
	p := &pass{
		tr: &tracer{t0: time.Now()}, budget: opt.Budget, dir: opt.Dir,
		in: in, groups: s.Groups, evs: s.feedEvents(), metrics: map[string]float64{},
	}
	if p.budget <= 0 {
		p.budget = defaultBudget
	}
	p.root = p.tr.begin("trace:"+in.Workload, -1)
	size := int(opt.BatchEvents + 0.5)
	if size < 1 {
		size = 1
	}
	for i := 0; i < len(p.evs); i += size {
		p.batches = append(p.batches, p.evs[i:min(i+size, len(p.evs))])
	}
	p.filter = feedtypes.Filter{Prefixes: in.World.Owned, MoreSpecific: true, LessSpecific: true}
	p.union = &core.Config{
		OwnedPrefixes:    in.World.Owned,
		LegitOrigins:     []bgp.ASN{gen.LegitOrigin},
		AllowedUpstreams: map[bgp.ASN][]bgp.ASN{gen.LegitOrigin: {gen.Upstream0, gen.Upstream1}},
	}
	for _, probe := range []func() error{
		p.codecs, p.wire, p.recv, p.ingest, p.smallParts, p.core, p.mitigation, p.glassFiles, p.routeIntel, p.node,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	p.tr.end(p.root, len(p.evs))
	return p.report(opt), nil
}

func (p *pass) set(name string, v float64) { p.metrics[name] = v }

// codecs: the decoders on bytes already in memory.
func (p *pass) codecs() error {
	var wires [][]byte
	var bmpBuf, mrtBuf, evlog []byte
	var seq uint64
	for i := range p.groups {
		g := &p.groups[i]
		w, err := bgp.Marshal(gen.Update(g), bgp.DefaultOptions)
		if err != nil {
			return err
		}
		wires = append(wires, w)
		bmpBuf = gen.AppendBMP(bmpBuf, g)
		mrtBuf = gen.AppendMRT(mrtBuf, g)
		evlog = gen.AppendEvlog(evlog, g, &seq, g.Seen)
	}
	var failed error
	c := p.measure("bgp.parse", len(wires), func(int) {
		for _, w := range wires {
			if _, err := bgp.ParseMessage(w, bgp.DefaultOptions); err != nil {
				failed = err
			}
		}
	})
	p.set("bgp.parse_ns_per_update", c.nsPerEvent)

	c = p.measure("bmp.decode", len(p.groups), func(int) {
		rd := bmp.NewReader(bytes.NewReader(bmpBuf), bgp.DefaultOptions)
		for {
			if _, err := rd.Next(); err != nil {
				if err != io.EOF {
					failed = err
				}
				return
			}
		}
	})
	p.set("bmp.decode_ns_per_msg", c.nsPerEvent)
	p.set("bmp.decode_allocs_per_msg", c.allocsPerEvent)

	c = p.measure("mrt.decode", len(p.groups), func(int) {
		rd := mrt.NewReader(bytes.NewReader(mrtBuf))
		for {
			if _, err := rd.Next(); err != nil {
				if err != io.EOF {
					failed = err
				}
				return
			}
		}
	})
	p.set("mrt.decode_ns_per_record", c.nsPerEvent)

	c = p.measure("eventlog.decode", len(p.evs), func(int) {
		rd := eventlog.NewReader(bytes.NewReader(evlog))
		for {
			if _, err := rd.Next(); err != nil {
				if err != io.EOF {
					failed = err
				}
				return
			}
		}
	})
	p.set("eventlog.decode_ns_per_event", c.nsPerEvent)

	buf := make([]byte, 0, 512)
	c = p.measure("eventlog.encode", len(p.evs), func(int) {
		for i := range p.evs {
			buf = eventlog.AppendRecord(buf[:0], eventlog.Record{Seq: uint64(i), Event: p.evs[i]})
		}
	})
	p.set("eventlog.encode_ns_per_event", c.nsPerEvent)

	rec, err := eventlog.NewRecorder(eventlog.RecorderConfig{Prefix: filepath.Join(p.dir, "rec")})
	if err != nil {
		return err
	}
	c = p.measure("recorder.record", len(p.evs), func(int) {
		for _, b := range p.batches {
			rec.Record(b)
		}
	})
	p.set("recorder.record_ns_per_event", c.nsPerEvent)
	if err := rec.Close(); err != nil {
		return err
	}

	c = p.measure("feedtypes.filter", len(p.evs), func(int) {
		for i := range p.evs {
			p.filter.Match(p.evs[i].Prefix)
		}
	})
	p.set("feedtypes.filter_ns_per_event", c.nsPerEvent)
	return failed
}

// serve starts a loopback listener whose every connection is handed to
// fn, and returns its address and a stop function.
func serve(fn func(net.Conn)) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go fn(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// risFeed serves the sample as a RIS-Live websocket feed: every
// subscriber gets all of it at once, then the connection idles until the
// subscriber leaves.
func (p *pass) risFeed() (url string, stop func()) {
	var frames []byte
	for i := range p.groups {
		frames = gen.AppendRISFrames(frames, &p.groups[i])
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, br, err := wsfeed.Accept(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Write(frames); err != nil {
			return
		}
		for wsfeed.SkipFrame(br) == nil {
		}
	}))
	return "ws" + srv.URL[len("http"):] + "/v1/ws", srv.Close
}

// wire: the websocket reader and the RIS client on a pre-filled loopback.
func (p *pass) wire() error {
	url, stop := p.risFeed()
	defer stop()
	msgs := len(p.evs)
	var failed error
	c := p.measure("wsock.read", msgs, func(int) {
		ws, err := wsock.Dial(url)
		if err != nil {
			failed = err
			return
		}
		defer ws.Close()
		if err := ws.WriteMessage(wsock.OpText, []byte(`{"type":"ris_subscribe"}`)); err != nil {
			failed = err
			return
		}
		for i := 0; i < msgs; i++ {
			if _, _, err := ws.ReadMessage(); err != nil {
				failed = err
				return
			}
		}
	})
	p.set("wsock.read_ns_per_msg", c.nsPerEvent)

	c = p.measure("ris.decode", msgs, func(int) {
		cli, err := ris.DialClient(url, p.filter)
		if err != nil {
			failed = err
			return
		}
		defer cli.Close()
		for i := 0; i < msgs; i++ {
			if _, ok := <-cli.Events(); !ok {
				failed = fmt.Errorf("ris client closed after %d of %d events: %v", i, msgs, cli.Err())
				return
			}
		}
	})
	p.set("ris.decode_ns_per_event", c.nsPerEvent)
	p.set("ris.decode_allocs_per_event", c.allocsPerEvent)
	return failed
}

// recv: the workload's own transport, from Dial to the last Recv, on a
// pre-filled loopback socket or local file.
func (p *pass) recv() error {
	var dialer ingest.Dialer
	switch p.in.Workload {
	case gen.RISPaced:
		url, stop := p.risFeed()
		defer stop()
		dialer = ingest.RISDialer(url, p.filter)
	case gen.BMPFlood:
		stream := gen.BMPGreeting("layers-rtr", p.in.World.VPs)
		for i := range p.groups {
			stream = gen.AppendBMP(stream, &p.groups[i])
		}
		addr, stop, err := serve(func(c net.Conn) {
			c.Write(stream) // a reader that left early is the probe's business
			c.Close()
		})
		if err != nil {
			return err
		}
		defer stop()
		dialer = ingest.BMPDialer(addr, p.filter)
	case gen.MRTReplay:
		var file []byte
		for i := range p.groups {
			file = gen.AppendMRT(file, &p.groups[i])
		}
		path := filepath.Join(p.dir, "recv.mrt")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			return err
		}
		dialer = ingest.MRTReplayDialer(func() (io.ReadCloser, error) { return os.Open(path) }, "layers")
	default:
		var file []byte
		var seq uint64
		for i := range p.groups {
			file = gen.AppendEvlog(file, &p.groups[i], &seq, p.groups[i].Seen)
		}
		path := filepath.Join(p.dir, "recv.evlog")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			return err
		}
		dialer = ingest.EventLogFileDialer(path, ingest.EventLogReplay{})
	}
	// The BMP station filters client-side; the other transports deliver
	// everything they were sent.
	want := len(p.evs)
	if p.in.Workload == gen.BMPFlood {
		want = 0
		for i := range p.evs {
			if p.filter.Match(p.evs[i].Prefix) {
				want++
			}
		}
	}
	var failed error
	c := p.measure("ingest.recv", len(p.evs), func(int) {
		conn, err := dialer.Dial()
		if err != nil {
			failed = err
			return
		}
		defer conn.Close()
		for got := 0; got < want; {
			batch, err := conn.Recv()
			got += len(batch)
			if err != nil {
				if got < want {
					failed = fmt.Errorf("transport ended after %d of %d events: %w", got, want, err)
				}
				return
			}
		}
	})
	p.set("ingest.recv_ns_per_event", c.nsPerEvent)
	return failed
}

// ingest: the supervisor from queue to delivery — copy-in, ring, dedup,
// accounting — fed the sample in the end-to-end run's batch shape.
func (p *pass) ingest() error {
	var delivered atomic.Int64
	c := p.measure("ingest.supervise", len(p.evs), func(int) {
		sup := ingest.New(func(evs []feedtypes.Event) { delivered.Add(int64(len(evs))) }, ingest.Config{})
		sup.AddDialer("replay", ingest.ReplayDialer(p.batches), ingest.Blocking())
		sup.Wait()
		sup.Close()
	})
	p.set("ingest.supervise_ns_per_event", c.nsPerEvent)
	p.set("ingest.supervise_allocs_per_event", c.allocsPerEvent)
	// Not every event is delivered — bmp-flood's mirrored groups are what
	// the dedup is there to drop — but a supervisor that delivers nothing
	// was not measured.
	if delivered.Load() == 0 {
		return fmt.Errorf("ingest supervisor delivered none of the sample's %d events", len(p.evs))
	}
	return nil
}

// smallParts: the data structures the hot path leans on.
func (p *pass) smallParts() error {
	const n = 1 << 16
	set := ttlset.New[uint64](10*time.Minute, 1<<12)
	var key uint64
	c := p.measure("ttlset.add", n, func(int) {
		for i := 0; i < n; i++ {
			key++
			set.Add(key*0x9e3779b97f4a7c15, time.Duration(key)*time.Microsecond)
		}
	})
	p.set("ttlset.add_ns", c.nsPerEvent)

	c = p.measure("ring.handoff", n, func(int) {
		r := ring.New[int](64)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := r.Pop(); !ok {
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			r.Push(i)
		}
		r.Close()
		<-done
	})
	p.set("ring.handoff_ns", c.nsPerEvent)

	trie := prefix.NewTrie[int]()
	for i, o := range p.in.World.Owned {
		trie.Insert(o, i)
	}
	c = p.measure("prefix.lpm", len(p.evs), func(int) {
		for i := range p.evs {
			trie.LongestMatchPrefix(p.evs[i].Prefix)
		}
	})
	p.set("prefix.lpm_ns", c.nsPerEvent)
	return nil
}

// tenantConfig is the core config of one tenant of the workload's world.
func tenantConfig(t gen.Tenant) *core.Config {
	return &core.Config{
		OwnedPrefixes:    t.Prefixes,
		LegitOrigins:     []bgp.ASN{gen.LegitOrigin},
		AllowedUpstreams: map[bgp.ASN][]bgp.ASN{gen.LegitOrigin: {gen.Upstream0, gen.Upstream1}},
		AlertDedupTTL:    24 * time.Hour,
		AlertDedupMax:    1 << 16,
	}
}

// core: the sharded pipeline (route, classify, sink, monitor) against the
// serial detector and the monitor alone.
func (p *pass) core() error {
	policies := make([]core.TenantPolicy, len(p.in.World.Tenants))
	for i, t := range p.in.World.Tenants {
		cfg := tenantConfig(t)
		policies[i] = core.TenantPolicy{Name: t.Name, Config: cfg, Detector: core.NewDetector(cfg), Monitor: core.NewMonitor(cfg)}
	}
	var table *core.PolicyTable
	var err error
	build := p.once("core.table_build", len(policies), func() { table, err = core.NewPolicyTable(policies) })
	if err != nil {
		return err
	}
	p.set("core.table_build_ms", build.Seconds()*1e3)

	pl := core.NewPipelineTable(table, core.PipelineConfig{})
	c := p.measure("core.submit", len(p.evs), func(int) {
		for _, b := range p.batches {
			pl.Submit(b)
		}
		pl.Flush()
	})
	pl.Close()
	p.set("core.submit_ns_per_event", c.nsPerEvent)
	p.set("core.submit_allocs_per_event", c.allocsPerEvent)

	det := core.NewDetector(p.union)
	c = p.measure("core.serial", len(p.evs), func(int) { det.ProcessBatch(p.evs) })
	p.set("core.serial_ns_per_event", c.nsPerEvent)

	mon := core.NewMonitor(p.union)
	c = p.measure("core.monitor", len(p.evs), func(int) { mon.ProcessBatch(p.evs) })
	p.set("core.monitor_ns_per_event", c.nsPerEvent)
	return nil
}

// countingAnnouncer is the in-memory southbound of the mitigation probe.
type countingAnnouncer struct{ n int }

func (a *countingAnnouncer) Announce(prefix.Prefix) error { a.n++; return nil }

// mitigation: alert → de-aggregation → announcement, in memory; and one
// REST announcement on loopback.
func (p *pass) mitigation() error {
	const n = 2048
	owned := p.in.World.Owned
	alerts := make([]core.Alert, n)
	for i := range alerts {
		o := owned[i%len(owned)]
		alerts[i] = core.Alert{Type: core.AlertExactOrigin, Prefix: o, Owned: o, Origin: bgp.ASN(900000 + i)}
	}
	start := time.Now()
	c := p.measure("core.mitigate", n, func(int) {
		m := core.NewMitigator(p.union, &countingAnnouncer{}, func() time.Duration { return time.Since(start) })
		for i := range alerts {
			m.HandleAlert(alerts[i])
		}
	})
	p.set("core.mitigate_us_per_alert", c.nsPerEvent/1e3)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	cli := controller.NewRESTClient(srv.URL)
	const calls = 128
	var failed error
	c = p.measure("controller.rest", calls, func(int) {
		for i := 0; i < calls; i++ {
			if err := cli.AnnounceRoute(owned[i%len(owned)]); err != nil {
				failed = err
			}
		}
	})
	p.set("controller.rest_us_per_call", c.nsPerEvent/1e3)
	return failed
}

// glassFiles sets the route-intelligence inputs the lookup probes read:
// the workload's own when it has them (glass-mixed), otherwise a small
// synthetic table, since the read tier is then off the workload's path
// and only its cost per call is of interest.
func (p *pass) glassFiles() error {
	if p.in.RIB != nil {
		p.snapshot, p.roas = p.in.RIB, p.in.ROAs
		p.keys = append(append([]gen.Lookup(nil), p.in.HotLookups...), p.in.ColdLookups...)
		return nil
	}
	var buf bytes.Buffer
	if err := rib.WriteSynth(&buf, rib.SynthConfig{V4: 10000, V6: 2000, Seed: p.in.Seed}); err != nil {
		return err
	}
	p.snapshot = buf.Bytes()
	p.keys = gen.LookupKeys(p.snapshot)
	if len(p.keys) > 4096 {
		p.keys = p.keys[:4096]
	}
	p.roas = gen.ROAs(p.keys)
	return nil
}

// routeIntel: the route table and the ROA table by themselves.
func (p *pass) routeIntel() error {
	snapshot, roas, keys := p.snapshot, p.roas, p.keys
	var err error
	table := rib.New()
	load := p.once("rib.load", 0, func() { _, err = rib.Load(bytes.NewReader(snapshot), table) })
	if err != nil {
		return err
	}
	p.set("rib.load_ms", load.Seconds()*1e3)

	c := p.measure("rib.apply", len(p.evs), func(int) {
		for _, b := range p.batches {
			table.Apply(b)
		}
	})
	p.set("rib.apply_ns_per_event", c.nsPerEvent)

	queries := make([]prefix.Prefix, len(keys))
	for i, k := range keys {
		if queries[i], err = prefix.Parse(k.Query); err != nil {
			return err
		}
	}
	misses := 0
	c = p.measure("rib.lookup", len(queries), func(int) {
		for _, q := range queries {
			if _, ok := table.Lookup(q); !ok {
				misses++
			}
		}
	})
	p.set("rib.lookup_ns", c.nsPerEvent)
	if misses > 0 {
		return fmt.Errorf("rib lookup missed %d resident prefixes", misses)
	}

	tb, err := rpki.Parse(roas)
	if err != nil {
		return err
	}
	invalid := 0
	c = p.measure("rpki.validate", len(queries), func(int) {
		for i, q := range queries {
			if tb.Validate(q, bgp.ASN(keys[i].Origin)) != rpki.Valid {
				invalid++
			}
		}
	})
	p.set("rpki.validate_ns", c.nsPerEvent)
	if invalid > 0 {
		return fmt.Errorf("rpki validation rejected %d authorized routes", invalid)
	}
	return nil
}

// nodeConfig is the workload's declarative config, without sources.
func (p *pass) nodeConfig() *artemis.Config {
	cfg := &artemis.Config{}
	ups := map[uint32][]uint32{gen.LegitOrigin: {gen.Upstream0, gen.Upstream1}}
	strs := func(ps []prefix.Prefix) []string {
		out := make([]string, len(ps))
		for i, q := range ps {
			out[i] = q.String()
		}
		return out
	}
	w := p.in.World
	if len(w.Tenants) == 1 {
		cfg.Prefixes, cfg.Origins, cfg.Upstreams = strs(w.Owned), []uint32{gen.LegitOrigin}, ups
	} else {
		for _, t := range w.Tenants {
			cfg.Tenants = append(cfg.Tenants, artemis.TenantSpec{
				Name: t.Name, Prefixes: strs(t.Prefixes), Origins: []uint32{gen.LegitOrigin}, Upstreams: ups, Token: t.Token,
			})
		}
		cfg.Control.AdminToken = w.AdminToken
	}
	return cfg
}

// node: the assembled pkg/artemis node — construction, Inject, and the
// control plane's lookup and /metrics handlers over loopback HTTP.
func (p *pass) node() error {
	snapshot, roas, keys := p.snapshot, p.roas, p.keys
	files := map[string][]byte{"rib.mrt": snapshot, "roas.json": roas, "asnames.csv": p.in.ASNames}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(p.dir, name), data, 0o644); err != nil {
			return err
		}
	}
	quiet := artemis.WithLogf(func(string, ...any) {})
	build := func(glass bool) (*artemis.Node, time.Duration, error) {
		cfg := p.nodeConfig()
		if glass {
			cfg.RIB = artemis.RIBConfig{Enabled: true, Path: filepath.Join(p.dir, "rib.mrt")}
			cfg.RPKI.Path = filepath.Join(p.dir, "roas.json")
			if p.in.ASNames != nil {
				cfg.ASNames.Path = filepath.Join(p.dir, "asnames.csv")
			}
		}
		var n *artemis.Node
		var err error
		took := p.once("artemis.new", 0, func() { n, err = artemis.New(cfg, quiet) })
		return n, took, err
	}
	// The node as the workload configures it; glass-mixed's carries the
	// route-intelligence tier, the others' does not.
	own, took, err := build(p.in.RIB != nil)
	if err != nil {
		return err
	}
	defer own.Drain()
	p.set("artemis.new_ms", took.Seconds()*1e3)
	glass := own
	if p.in.RIB == nil {
		if glass, _, err = build(true); err != nil {
			return err
		}
		defer glass.Drain()
	}

	obs := make([][]artemis.RouteObservation, len(p.batches))
	for i, b := range p.batches {
		for _, ev := range b {
			o := artemis.RouteObservation{
				Source: "bench", Collector: "layers", VantagePoint: uint32(ev.VantagePoint),
				Withdraw: ev.Kind == feedtypes.Withdraw, Prefix: ev.Prefix.String(),
			}
			for _, as := range ev.Path {
				o.Path = append(o.Path, uint32(as))
			}
			obs[i] = append(obs[i], o)
		}
	}
	var failed error
	c := p.measure("artemis.inject", len(p.evs), func(int) {
		for _, b := range obs {
			if err := own.Inject(b...); err != nil {
				failed = err
			}
		}
	})
	p.set("artemis.inject_ns_per_event", c.nsPerEvent)
	if failed != nil {
		return failed
	}

	srv := httptest.NewServer(control.NewServer(glass).Handler())
	defer srv.Close()
	get := func(path string) error {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			return err
		}
		if tok := p.in.World.AdminToken; tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return errors.New("GET " + path + ": " + resp.Status)
		}
		return nil
	}
	const calls = 128
	hot := "/v1/lookup/" + keys[0].Query
	if err := get(hot); err != nil { // the miss that fills the cache
		return err
	}
	c = p.measure("control.lookup_hit", calls, func(int) {
		for i := 0; i < calls; i++ {
			if err := get(hot); err != nil {
				failed = err
			}
		}
	})
	p.set("control.lookup_us_hit", c.nsPerEvent/1e3)
	// Every key is asked for once, so none is in the response cache yet.
	next := 1
	c = p.measure("control.lookup_miss", calls, func(int) {
		for i := 0; i < calls; i++ {
			if err := get("/v1/lookup/" + keys[next%len(keys)].Query); err != nil {
				failed = err
			}
			next++
		}
	})
	p.set("control.lookup_us_miss", c.nsPerEvent/1e3)
	c = p.measure("control.metrics_scrape", 8, func(int) {
		for i := 0; i < 8; i++ {
			if err := get("/metrics"); err != nil {
				failed = err
			}
		}
	})
	p.set("control.metrics_scrape_ms", c.nsPerEvent/1e6)
	return failed
}
