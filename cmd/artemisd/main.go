// artemisd is the ARTEMIS daemon: a thin shell over the embeddable
// pkg/artemis API. It loads a declarative config file, applies flag
// overrides, assembles a node (supervised multi-source ingest, batched
// detection pipeline, incremental monitor, bounded async mitigation) and
// serves the versioned HTTP control plane — including /metrics and live
// reconfiguration — until SIGINT/SIGTERM, then drains gracefully.
//
//	go run ./cmd/artemisd -config artemis.yaml
//
// or flag-only, as earlier versions were driven:
//
//	go run ./cmd/artemisd \
//	    -prefix 10.0.0.0/23,2001:db8::/32 -origin 61000 \
//	    -ris ws://127.0.0.1:PORT/v1/ws -bgpmon 127.0.0.1:PORT \
//	    -controller http://127.0.0.1:PORT -listen :9130
//
// Flags override the config file where both are given. While running,
// owned prefixes, origins and feed sources are all hot-reconfigurable
// over HTTP (POST/DELETE /v1/prefixes, /v1/sources) with no restart; the
// /v1/alerts/stream endpoint serves alerts, mitigation outcomes and
// source-health transitions as server-sent events, and /v1/events/stream
// is the raw feed-event firehose in the event-log envelope form.
//
// -record archives the post-dedup event stream to rotated .evlog
// segments; -replay feeds such an archive back through the full
// pipeline at -replay-speed (N x recorded pacing, 0 = as fast as
// possible) with event time preserved, so a replayed incident
// reproduces the live run's alerts exactly (docs/INTERCHANGE.md).
// -bmp dials a router's BMP port in station mode (RFC 7854).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"artemis/pkg/artemis"
	"artemis/pkg/artemis/control"
)

// listFlag collects repeated occurrences of a flag.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	configPath := flag.String("config", "", "declarative config file (artemis.yaml); flags override it")
	prefixes := flag.String("prefix", "", "comma-separated owned prefixes, v4 and/or v6")
	origins := flag.String("origin", "", "comma-separated legitimate origin ASNs")
	var risURLs, bmonAddrs, mrtFiles, periURLs, bmpAddrs, replayGlobs listFlag
	flag.Var(&risURLs, "ris", "RIS websocket URL (ws://host:port/v1/ws); repeatable")
	flag.Var(&bmonAddrs, "bgpmon", "BGPmon TCP address (host:port); repeatable")
	flag.Var(&mrtFiles, "mrt", "MRT archive file to replay as a feed; repeatable")
	flag.Var(&periURLs, "periscope", "Periscope looking-glass REST base URL (http://host:port); repeatable")
	flag.Var(&bmpAddrs, "bmp", "BMP exporter TCP address to dial in station mode (host:port); repeatable")
	flag.Var(&replayGlobs, "replay", "event-log archive file or glob to replay as a feed; repeatable")
	replaySpeed := flag.Float64("replay-speed", 0, "replay pacing: 1 = recorded speed, N = N x faster, 0 = as fast as possible")
	recordPath := flag.String("record", "", "archive the post-dedup event stream to <path>-NNNNNN.evlog segments")
	ctrlURL := flag.String("controller", "", "controller REST base URL (enables auto-mitigation)")
	cfgDelay := flag.Duration("config-delay", 0, "controller configuration latency (default 15s; 0 = no delay)")
	runFor := flag.Duration("run-for", 0, "exit after this wall time (0 = run until SIGINT/SIGTERM)")
	listen := flag.String("listen", "", "control plane + /metrics listen address (e.g. :9130)")
	metricsAddr := flag.String("metrics", "", "deprecated alias for -listen")
	adminToken := flag.String("admin-token", "", "control-plane admin bearer token (unset + no tenant tokens = open API)")
	statePath := flag.String("state", "", "persisted config store; preferred over -config when it exists, written back on every live change")
	mitQueue := flag.Int("mitigation-queue", 0, "async mitigation queue depth (default 64)")
	srcQueue := flag.Int("source-queue", 0, "per-source pending-batch bound (default 64)")
	dedupTTL := flag.Duration("dedup-ttl", 0, "cross-source dedup window (default 10m; negative disables)")
	alertTTL := flag.Duration("alert-ttl", 0, "incident dedup window (default 24h; 0 = dedup forever, unbounded suppression)")
	ribPath := flag.String("rib", "", "MRT TABLE_DUMP_V2 snapshot to bootstrap the route table (enables /v1/lookup)")
	rpkiSrc := flag.String("rpki", "", "ROA export for origin validation: a JSON file path or an http(s) URL")
	rpkiRefresh := flag.Duration("rpki-refresh", 0, "re-fetch interval for an -rpki URL (0 = fetch once)")
	asnamesPath := flag.String("asnames", "", "AS-name CSV (asn,name[,locale]) to enrich alerts and lookups")
	flag.Parse()
	// Flags whose zero value is meaningful need set-detection: an
	// explicit 0 maps to the config schema's negative sentinel ("really
	// zero / forever") instead of reading as unset.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// The persisted state store (written back on every live change) wins
	// over the declarative file: tenants and prefixes added over HTTP in a
	// prior run survive a restart even if artemis.yaml predates them.
	cfg := &artemis.Config{}
	switch {
	case *statePath != "" && fileExists(*statePath):
		var err error
		cfg, err = artemis.LoadState(*statePath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("resuming from state store %s (%d tenants)", *statePath, len(cfg.Tenants))
	case *configPath != "":
		var err error
		cfg, err = artemis.LoadConfig(*configPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *statePath != "" {
		cfg.Control.StateFile = *statePath
	}
	if *adminToken != "" {
		cfg.Control.AdminToken = *adminToken
	}

	// Flag overrides on top of the file.
	if *prefixes != "" {
		cfg.Prefixes = splitList(*prefixes)
	}
	if *origins != "" {
		cfg.Origins = nil
		for _, s := range splitList(*origins) {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				log.Fatalf("bad -origin %q: %v", s, err)
			}
			cfg.Origins = append(cfg.Origins, uint32(v))
		}
	}
	for _, u := range risURLs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourceRIS, URL: u})
	}
	for _, a := range bmonAddrs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourceBGPmon, Addr: a})
	}
	for _, f := range mrtFiles {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourceMRT, Path: f})
	}
	for _, u := range periURLs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourcePeriscope, URL: u})
	}
	for _, a := range bmpAddrs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourceBMP, Addr: a})
	}
	for _, g := range replayGlobs {
		cfg.Sources = append(cfg.Sources, artemis.SourceSpec{Type: artemis.SourceReplay, Path: g, Speed: *replaySpeed})
	}
	if *recordPath != "" {
		cfg.Record.Path = *recordPath
	}
	if *ctrlURL != "" {
		cfg.Mitigation.Controller = *ctrlURL
	}
	if explicit["config-delay"] {
		cfg.Mitigation.ConfigDelay = artemis.Duration(*cfgDelay)
		if *cfgDelay == 0 {
			cfg.Mitigation.ConfigDelay = -1 // explicit zero-latency controller
		}
	}
	if *mitQueue > 0 {
		cfg.Mitigation.QueueDepth = *mitQueue
	}
	if *srcQueue > 0 {
		cfg.Tuning.SourceQueue = *srcQueue
	}
	if *dedupTTL != 0 {
		cfg.Tuning.DedupTTL = artemis.Duration(*dedupTTL)
	}
	if explicit["alert-ttl"] {
		cfg.Tuning.AlertTTL = artemis.Duration(*alertTTL)
		if *alertTTL == 0 {
			cfg.Tuning.AlertTTL = -1 // explicit dedup-forever
		}
	}
	if *listen != "" {
		cfg.Control.Listen = *listen
	} else if *metricsAddr != "" {
		cfg.Control.Listen = *metricsAddr
	}
	if *ribPath != "" {
		cfg.RIB = artemis.RIBConfig{Enabled: true, Path: *ribPath}
	}
	if *rpkiSrc != "" {
		cfg.RPKI = artemis.RPKIConfig{Refresh: artemis.Duration(*rpkiRefresh)}
		if strings.HasPrefix(*rpkiSrc, "http://") || strings.HasPrefix(*rpkiSrc, "https://") {
			cfg.RPKI.URL = *rpkiSrc
		} else {
			cfg.RPKI.Path = *rpkiSrc
		}
	}
	if *asnamesPath != "" {
		cfg.ASNames.Path = *asnamesPath
	}
	if len(cfg.Sources) == 0 {
		log.Fatal("no feeds configured; declare sources in -config or pass -ris/-bgpmon/-mrt/-periscope/-bmp/-replay")
	}

	node, err := artemis.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The control plane (REST + SSE + /metrics) shares one server, shut
	// down gracefully with the node in the drain path below.
	var srv *control.Server
	if cfg.Control.Listen != "" {
		srv = control.NewServer(node)
		go func() {
			log.Printf("control plane on http://%s (metrics at /metrics)", cfg.Control.Listen)
			if err := srv.ListenAndServe(cfg.Control.Listen); err != nil && err != http.ErrServerClosed {
				log.Printf("control plane: %v", err)
			}
		}()
	}

	fmt.Printf("artemisd watching %v (origins %v, %d tenant(s)) over %d supervised feed(s)\n",
		cfg.Prefixes, cfg.Origins, len(node.TenantNames()), len(cfg.Sources))

	// Run until a signal or the -run-for timer, then drain in dependency
	// order: sources -> pipeline flush -> mitigation queue -> control plane.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}
	if err := node.Run(ctx); err != nil {
		log.Fatal(err)
	}
	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("control plane shutdown: %v", err)
		}
	}

	for _, src := range node.Health().Sources {
		fmt.Printf("  %-14s %-10s events=%d batches=%d dedup=%d drops=%d reconnects=%d\n",
			src.Name, src.State, src.Events, src.Batches, src.DedupHits, src.Drops, src.Reconnects)
	}
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
