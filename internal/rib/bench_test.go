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
// 20k v6 prefixes, seed 1). /announce announces 14,336 random resident
// prefixes from a vantage point the snapshot lacks (a second candidate,
// usually the new best); /withdraw withdraws those announcements again.
// Every event so finds its prefix cold. Each sub-benchmark times only its
// own kind: the opposite events that restore the table run with the timer
// stopped, after every full pass and after the last batch.
func BenchmarkRIBApply(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteSynth(&buf, SynthConfig{V4: 100_000, V6: 20_000, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	t := New()
	if _, err := Load(bytes.NewReader(buf.Bytes()), t); err != nil {
		b.Fatal(err)
	}
	resident := bests(t)
	const batch, n, vp = 7, 7 * 2048, bgp.ASN(64999)
	ann := make([]feedtypes.Event, 0, n)
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(resident))[:n] {
		r := resident[i]
		ann = append(ann, feedtypes.Event{Kind: feedtypes.Announce, VantagePoint: vp, Prefix: r.prefix, Path: []bgp.ASN{vp, r.path[len(r.path)-1]}})
	}
	wd := make([]feedtypes.Event, n)
	for i, e := range ann {
		wd[i] = feedtypes.Event{Kind: feedtypes.Withdraw, VantagePoint: vp, Prefix: e.Prefix}
	}
	applyUpTo := func(evs []feedtypes.Event, end int) {
		for k := 0; k < end; k += batch {
			t.Apply(evs[k : k+batch])
		}
	}
	run := func(b *testing.B, timed, undo []feedtypes.Event) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % (n / batch) * batch
			t.Apply(timed[j : j+batch])
			if end := j + batch; end == n || i == b.N-1 {
				b.StopTimer()
				applyUpTo(undo, end)
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
	}
	b.Run("announce", func(b *testing.B) { run(b, ann, wd) })
	b.Run("withdraw", func(b *testing.B) {
		applyUpTo(ann, n)
		run(b, wd, ann)
		b.StopTimer()
		applyUpTo(wd, n)
	})
}

// TestLoadAllocsPerRoute holds the bootstrap to its allocation budget on
// a snapshot of the glass-mixed benchmark workload's shape (100k v4 + 20k
// v6 prefixes, seed 1). Decoding allocates nothing per route; prefix
// states, AS paths and trie nodes all come from chunks, and the origin
// index takes the load's changes in one fold at the end, so the load
// allocates per chunk and for the origin map's growth: about 750 times,
// 0.0063 per route. The budget, 0.02, trips if anything comes back once
// per 50 routes.
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

// loadBytesPerRoute is TestLoadBytesPerRoute's budget: the measured
// 82.4-83.0 B/route plus 10%.
const loadBytesPerRoute = 91

// TestLoadBytesPerRoute holds the heap a loaded table retains to its
// budget, on a snapshot of the glass-mixed benchmark workload's shape
// (100k v4 + 20k v6 prefixes, seed 1): the live heap after a collection,
// with the table loaded, less the live heap before it. The snapshot stays
// live throughout, so it is not netted out.
func TestLoadBytesPerRoute(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSynth(&buf, SynthConfig{V4: 100_000, V6: 20_000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
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
	runtime.KeepAlive(data)
	runtime.KeepAlive(tb)
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / float64(st.Routes)
	t.Logf("loaded %s: %.1f B/route retained", st, perRoute)
	if perRoute > loadBytesPerRoute {
		t.Fatalf("%.1f B/route retained, budget %d", perRoute, loadBytesPerRoute)
	}
}

// fullBytesPerRoute is TestFullRIBLoadMeasured's budget, set on the
// generated full-scale fixture: the measured 49 B/route plus 10%.
const fullBytesPerRoute = 54

// TestFullRIBLoadMeasured is the full-scale measurement behind
// docs/PERFORMANCE.md: ~1M v4 + ~220k v6 prefixes, two routes each,
// through the streaming bootstrap, reporting load time and the heap the
// table retains, and failing above fullBytesPerRoute. It allocates
// gigabyte-scale state, so it only runs when asked for:
//
//	ARTEMIS_RIB_FULL=1 go test ./internal/rib -run FullRIBLoad -v
//
// By default the snapshot is generated in memory, with cmd/ribgen's
// defaults; ARTEMIS_RIB_FIXTURE names an on-disk MRT file to measure
// instead (`make rib-measure` wires both up, so a real collector dump at
// the fixture path is measured as-is, against the same budget).
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
		if err := WriteSynth(&buf, SynthConfig{V4: 1_000_000, V6: 220_000, Peers: 8, RoutesPerPrefix: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
		t.Logf("generated %d MiB snapshot in %v", len(data)>>20, time.Since(gen).Round(time.Millisecond))
	}

	// The snapshot stays live until the second reading, so the difference
	// is the table alone.
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
	runtime.KeepAlive(data)
	resident := after.HeapAlloc - before.HeapAlloc
	perRoute := float64(resident) / float64(st.Routes)
	t.Logf("loaded %s", st)
	t.Logf("resident table heap: %d MiB (%.0f B/route)", resident>>20, perRoute)
	if perRoute > fullBytesPerRoute {
		t.Errorf("%.1f B/route retained, budget %d", perRoute, fullBytesPerRoute)
	}
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
	if _, ok := tb.Lookup(prefix.MustParse("0.0.0.1/32")); !ok {
		t.Fatal("post-load v4 lookup failed")
	}
	if _, ok := tb.Lookup(prefix.MustParse("2000::1/128")); !ok {
		t.Fatal("post-load v6 lookup failed")
	}
}
