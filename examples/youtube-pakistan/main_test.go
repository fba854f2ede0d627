package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/prefix"
	"artemis/pkg/artemis"
)

// simEpoch mirrors internal/feeds/dumps: BMP per-peer timestamps are
// mapped onto sim time relative to it, so anchoring the exporter's
// timestamps here makes the live run's SeenAt match the capture's.
var simEpoch = time.Unix(1466000000, 0).UTC()

// loadCapture reads the checked-in incident archive.
func loadCapture(t *testing.T) []eventlog.Record {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "capture-000001.evlog"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := eventlog.NewReader(f)
	var out []eventlog.Record
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		out = append(out, rec)
	}
	if len(out) != 4 {
		t.Fatalf("capture has %d records, want 4", len(out))
	}
	return out
}

type recordingInjector struct {
	mu        sync.Mutex
	announced []string
}

func (r *recordingInjector) AnnounceRoute(p string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.announced = append(r.announced, p)
	return nil
}
func (r *recordingInjector) WithdrawRoute(string) error { return nil }

// youtubeConfig is the protection policy both runs share: YouTube's /22
// with AS36561 as the only legitimate origin, 2008's reality.
func youtubeConfig(src artemis.SourceSpec) *artemis.Config {
	return &artemis.Config{
		Prefixes:   []string{"208.65.152.0/22"},
		Origins:    []uint32{36561},
		Mitigation: artemis.MitigationConfig{ConfigDelay: artemis.Duration(time.Millisecond)},
		Sources:    []artemis.SourceSpec{src},
	}
}

func runIncident(t *testing.T, cfg *artemis.Config, drive func(node *artemis.Node)) ([]artemis.Alert, []artemis.Mitigation) {
	t.Helper()
	inj := &recordingInjector{}
	node, err := artemis.New(cfg,
		artemis.WithRouteInjector(inj),
		artemis.WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- node.Run(ctx) }()
	drive(node)
	wait(t, "alert and mitigation", func() bool {
		return len(node.Alerts()) >= 1 && len(node.Mitigations()) >= 1
	})
	// Stop only once the southbound has every announcement the
	// mitigations name: Drain fails requests not yet due, and such a
	// failure would mark the record failed in one run and not the other.
	wait(t, "announcements sent", func() bool {
		want := 0
		for _, m := range node.Mitigations() {
			want += len(m.Announced)
		}
		inj.mu.Lock()
		defer inj.mu.Unlock()
		return len(inj.announced) == want
	})
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("node did not drain")
	}
	return node.Alerts(), node.Mitigations()
}

// TestCaptureReplaysLikeLive is the incident-interchange regression for
// the example: replaying the checked-in capture of the 2008 YouTube
// hijack through the full node raises exactly the alerts a live BMP
// feed of the same announcements does — detection is a function of the
// event stream, not of the transport it arrived over.
func TestCaptureReplaysLikeLive(t *testing.T) {
	records := loadCapture(t)

	// --- live run: the capture's announcements arrive over a BMP session ---
	exp, err := bmp.NewExporter("127.0.0.1:0", "rrc-sim", bgp.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	peers := map[bgp.ASN]bmp.PerPeerHeader{}
	nextAddr := 10
	peerFor := func(vp bgp.ASN, at time.Duration) bmp.PerPeerHeader {
		p, ok := peers[vp]
		if !ok {
			addr := prefix.MustParseAddr("192.0.2." + itoa(nextAddr))
			nextAddr++
			p = bmp.PerPeerHeader{Addr: addr, AS: vp, BGPID: uint32(vp)}
			peers[vp] = p
			exp.PeerUp(&bmp.PeerUp{
				Peer:      p,
				LocalAddr: prefix.MustParseAddr("192.0.2.1"), LocalPort: 179, RemotePort: 30000,
				SentOpen: bgp.NewOpen(64512, 90, prefix.MustParseAddr("192.0.2.1")),
				RecvOpen: bgp.NewOpen(vp, 90, prefix.MustParseAddr("192.0.2.1")),
			})
		}
		p.Timestamp = simEpoch.Add(at) // SeenAt maps back to the capture's sim time
		return p
	}
	publish := func(rec eventlog.Record) {
		ev := rec.Event
		exp.Publish(&bmp.RouteMonitoring{
			Peer: peerFor(ev.VantagePoint, ev.SeenAt),
			Update: &bgp.Update{
				Attrs: []bgp.PathAttr{
					&bgp.OriginAttr{Value: bgp.OriginIGP},
					bgp.NewASPath(ev.Path),
					&bgp.NextHopAttr{Addr: prefix.MustParseAddr("192.0.2.1")},
				},
				NLRI: []prefix.Prefix{ev.Prefix},
			},
		})
	}
	liveAlerts, liveMits := runIncident(t,
		youtubeConfig(artemis.SourceSpec{Type: artemis.SourceBMP, Addr: exp.Addr()}),
		func(node *artemis.Node) {
			// The first benign announcement doubles as the connection probe:
			// republish it until one delivery lands (cross-source dedup
			// suppresses the duplicates), then the rest exactly once.
			wait(t, "first delivery", func() bool {
				publish(records[0])
				h := node.Health()
				return len(h.Sources) == 1 && h.Sources[0].Events > 0
			})
			for _, rec := range records[1:] {
				publish(rec)
			}
		})

	// --- replay run: the same incident from the archive, as fast as possible ---
	glob := filepath.Join("testdata", "capture-*.evlog")
	replayAlerts, replayMits := runIncident(t,
		youtubeConfig(artemis.SourceSpec{Type: artemis.SourceReplay, Path: glob}),
		func(*artemis.Node) {})

	// The incident, as 2008 saw it: Pakistan Telecom's /24 inside
	// YouTube's /22, first witnessed by the Level3 vantage point.
	if len(replayAlerts) != 1 {
		t.Fatalf("replay alerts: %+v", replayAlerts)
	}
	a := replayAlerts[0]
	if a.Type != "sub-prefix" || a.Prefix != "208.65.153.0/24" || a.Owned != "208.65.152.0/22" ||
		a.Origin != 17557 || a.VantagePoint != 3356 {
		t.Fatalf("replay alert: %+v", a)
	}
	// Detection time is the capture's event time, not replay wall time.
	if a.DetectedAt != artemis.Duration(120*time.Second) {
		t.Fatalf("DetectedAt = %v, want 2m0s from the archive", a.DetectedAt)
	}

	// Same alerts as the live run, modulo the wall-clock stamps the live
	// transport assigns on arrival.
	if normJSON(t, liveAlerts) != normJSON(t, replayAlerts) {
		t.Fatalf("live and replay alerts differ:\nlive:   %s\nreplay: %s",
			normJSON(t, liveAlerts), normJSON(t, replayAlerts))
	}
	if normJSON(t, liveMits) != normJSON(t, replayMits) {
		t.Fatalf("live and replay mitigations differ:\nlive:   %s\nreplay: %s",
			normJSON(t, liveMits), normJSON(t, replayMits))
	}
}

// normJSON renders alert/mitigation histories with the wall-clock-derived
// stamps zeroed (DetectedAt is the transport's arrival clock on the live
// side; TriggeredAt is always the node clock).
func normJSON(t *testing.T, v any) string {
	t.Helper()
	switch vv := v.(type) {
	case []artemis.Alert:
		out := append([]artemis.Alert(nil), vv...)
		for i := range out {
			out[i].DetectedAt = 0
		}
		v = out
	case []artemis.Mitigation:
		out := append([]artemis.Mitigation(nil), vv...)
		for i := range out {
			out[i].TriggeredAt = 0
			out[i].Alert.DetectedAt = 0
		}
		v = out
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func wait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
