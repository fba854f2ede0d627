package rib

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
	"artemis/internal/route"
)

// benchSnapshot is generated once per process: a 1/250-scale table keeps
// the CI gate run (-benchtime=2000x) inside a sane wall-clock budget while
// preserving the full mask and path-shape mix.
var benchSnapshot []byte

func snapshotBytes(b *testing.B) []byte {
	if benchSnapshot == nil {
		var buf bytes.Buffer
		if err := WriteSynth(&buf, SynthConfig{V4: 4000, V6: 880, Peers: 8, RoutesPerPrefix: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		benchSnapshot = buf.Bytes()
	}
	return benchSnapshot
}

// BenchmarkRIBLoad streams one synthetic snapshot (4 880 routes, mixed
// v4/v6) into a fresh table per iteration — the bootstrap path end to end:
// MRT decode, peer resolution, selection, index maintenance.
func BenchmarkRIBLoad(b *testing.B) {
	data := snapshotBytes(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New()
		st, err := Load(bytes.NewReader(data), t)
		if err != nil {
			b.Fatal(err)
		}
		if st.Routes != 4880 {
			b.Fatalf("routes = %d", st.Routes)
		}
	}
}

// BenchmarkRIBApply folds live 7-event batches (glass-mixed's mean batch
// size) into a table loaded with that workload's snapshot shape (100k v4 +
// 20k v6 prefixes, seed 1). The first half of the event cycle announces
// 14,336 random resident prefixes from a vantage point the snapshot lacks
// (a second candidate, usually the new best); the second half withdraws
// them in the same order. Every event so finds its prefix cold, and a full
// cycle leaves the table as loaded.
func BenchmarkRIBApply(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteSynth(&buf, SynthConfig{V4: 100_000, V6: 20_000, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	t := New()
	if _, err := Load(bytes.NewReader(buf.Bytes()), t); err != nil {
		b.Fatal(err)
	}
	var resident []*route.Route
	t.rt.WalkBest(func(r *route.Route) bool { resident = append(resident, r); return true })
	const batch, n, vp = 7, 7 * 2048, bgp.ASN(64999)
	evs := make([]feedtypes.Event, 0, 2*n)
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(resident))[:n] {
		r := resident[i]
		evs = append(evs, feedtypes.Event{Kind: feedtypes.Announce, VantagePoint: vp, Prefix: r.Prefix, Path: []bgp.ASN{vp, r.Origin(0)}})
	}
	for i := range n {
		evs = append(evs, feedtypes.Event{Kind: feedtypes.Withdraw, VantagePoint: vp, Prefix: evs[i].Prefix})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (2 * n / batch) * batch
		t.Apply(evs[j : j+batch])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
}

// TestLoadAllocsPerRoute holds the bootstrap to its allocation budget on
// a snapshot of the glass-mixed benchmark workload's shape (100k v4 + 20k
// v6 prefixes, seed 1). Decoding allocates nothing per route; routes,
// paths, prefix states and trie nodes all come from chunks, and the origin
// index takes the load's changes in one fold at the end, so the load
// allocates per chunk: about 890 times, 0.007 per route. The budget, 0.02, trips if anything comes
// back once per 50 routes.
func TestLoadAllocsPerRoute(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSynth(&buf, SynthConfig{V4: 100_000, V6: 20_000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Load(bytes.NewReader(buf.Bytes()), New())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRoute := float64(after.Mallocs-before.Mallocs) / float64(st.Routes)
	t.Logf("loaded %s: %.4f allocs/route, %.0f B/route", st, perRoute, float64(after.TotalAlloc-before.TotalAlloc)/float64(st.Routes))
	if st.Routes != 120_000 {
		t.Fatalf("routes = %d", st.Routes)
	}
	if perRoute > 0.02 {
		t.Fatalf("%.4f allocs/route, budget 0.02", perRoute)
	}
}

// TestFullRIBLoadMeasured is the full-scale measurement behind
// docs/PERFORMANCE.md: ~1M v4 + ~220k v6 routes through the streaming
// bootstrap, reporting load time and resident heap. It allocates gigabyte-
// scale state, so it only runs when asked for:
//
//	ARTEMIS_RIB_FULL=1 go test ./internal/rib -run FullRIBLoad -v
//
// By default the snapshot is generated in memory; ARTEMIS_RIB_FIXTURE
// names an on-disk MRT file to measure instead (`make rib-measure` wires
// both up, so a real collector dump at the fixture path is measured
// as-is).
func TestFullRIBLoadMeasured(t *testing.T) {
	if os.Getenv("ARTEMIS_RIB_FULL") == "" {
		t.Skip("set ARTEMIS_RIB_FULL=1 to run the full-table load measurement")
	}
	var data []byte
	synthetic := true
	if path := os.Getenv("ARTEMIS_RIB_FIXTURE"); path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		synthetic = false
		t.Logf("measuring fixture %s (%d MiB)", path, len(data)>>20)
	} else {
		var buf bytes.Buffer
		gen := time.Now()
		if err := WriteSynth(&buf, SynthConfig{V4: 1_000_000, V6: 220_000, Peers: 8, RoutesPerPrefix: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
		t.Logf("generated %d MiB snapshot in %v", len(data)>>20, time.Since(gen).Round(time.Millisecond))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := New()
	st, err := Load(bytes.NewReader(data), tb)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := after.HeapAlloc - before.HeapAlloc
	t.Logf("loaded %s", st)
	t.Logf("resident table heap: %d MiB (%0.f B/route)", resident>>20, float64(resident)/float64(st.Routes))
	if !synthetic {
		t.Logf("table: %+v", tb.Snapshot())
		return
	}
	s := tb.Snapshot()
	if s.PrefixesV4 != 1_000_000 || s.PrefixesV6 != 220_000 {
		t.Fatalf("table sizes = %+v", s)
	}
	// The generator's first /24 and /48 sit at the base of each family's
	// space, so these addresses are certainly covered.
	if _, ok := tb.Resolve(prefix.MustParseAddr("0.0.0.1")); !ok {
		t.Fatal("post-load v4 resolve failed")
	}
	if _, ok := tb.Resolve(prefix.MustParseAddr("2000::1")); !ok {
		t.Fatal("post-load v6 resolve failed")
	}
}
