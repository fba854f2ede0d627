package ingest_test

import (
	"testing"
	"time"

	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
	"artemis/internal/prefix"
)

func watch(p string) feedtypes.Filter {
	return feedtypes.Filter{
		Prefixes:     []prefix.Prefix{prefix.MustParse(p)},
		MoreSpecific: true,
		LessSpecific: true,
	}
}

// Removing an in-process source must widen the survivor's subscription to
// cover the dead source's prefixes — events the survivor used to filter
// out start flowing.
func TestAutoWidenInProcessResubscribes(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		AutoWiden: true, DedupTTL: -1,
	})
	defer sup.Close()

	a := hubSource{feedtypes.NewHub(), "a"}
	b := hubSource{feedtypes.NewHub(), "b"}
	idA := sup.AddSource("a", a, watch("10.0.0.0/24"))
	idB := sup.AddSource("b", b, watch("10.1.0.0/24"))

	// b's slice flows; a's slice via b is filtered out.
	b.Publish([]feedtypes.Event{ev(100, "10.1.0.0/24", time.Second, 666)})
	b.Publish([]feedtypes.Event{ev(100, "10.0.0.0/24", 2*time.Second, 666)})
	if got.count() != 1 {
		t.Fatalf("pre-widen deliveries = %d, want 1", got.count())
	}

	sup.Remove(idA)

	f, ok := sup.EffectiveFilter(idB)
	if !ok || len(f.Prefixes) != 2 {
		t.Fatalf("survivor filter = %+v ok=%v, want both slices", f, ok)
	}
	b.Publish([]feedtypes.Event{ev(100, "10.0.0.0/24", 3*time.Second, 666)})
	if got.count() != 2 {
		t.Fatalf("post-widen deliveries = %d, want 2 (hole closed)", got.count())
	}
	// The dead source's id no longer resolves.
	if _, ok := sup.EffectiveFilter(idA); ok {
		t.Fatal("removed source still reports a filter")
	}
}

// A dial source dying on retry exhaustion leaves its declared (Covers)
// hole to both kinds of survivors: in-process sources re-subscribe, dial
// sources are bounced so the redial can pick up EffectiveFilter.
func TestAutoWidenDialDeathBouncesSurvivors(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		AutoWiden: true, DedupTTL: -1,
		BackoffBase: time.Millisecond, MaxRetries: 2,
	})
	defer sup.Close()

	inproc := hubSource{feedtypes.NewHub(), "inproc"}
	idIn := sup.AddSource("inproc", inproc, watch("10.1.0.0/24"))

	survivor := &flakyDialer{}
	idSurv := sup.AddDialer("survivor", survivor, ingest.Covers(watch("10.2.0.0/24")))
	waitFor(t, "survivor connect", func() bool { return survivor.lastConn() != nil })

	dying := &flakyDialer{}
	dying.setFailures(1 << 20) // never connects; dies after MaxRetries
	idDying := sup.AddDialer("dying", dying, ingest.Covers(watch("10.0.0.0/24")))
	waitFor(t, "dying source death", func() bool {
		return sup.SourceState(idDying) == ingest.StateDead
	})

	// Both survivors absorbed the hole.
	waitFor(t, "in-process widen", func() bool {
		f, ok := sup.EffectiveFilter(idIn)
		return ok && len(f.Prefixes) == 2
	})
	f, ok := sup.EffectiveFilter(idSurv)
	if !ok || len(f.Prefixes) != 2 {
		t.Fatalf("dial survivor filter = %+v ok=%v", f, ok)
	}
	// The dial survivor was bounced: its connection was dropped so the
	// redial can subscribe with the widened filter.
	waitFor(t, "survivor redial", func() bool { return survivor.dialCount() >= 2 })
	// And the in-process survivor's new subscription delivers the hole.
	inproc.Publish([]feedtypes.Event{ev(100, "10.0.0.0/24", time.Second, 666)})
	if got.count() != 1 {
		t.Fatalf("deliveries = %d, want the widened event", got.count())
	}
}

// A survivor whose filter already matches everything (or already covers
// the hole) must not churn: no resubscribe-visible change, no bounce.
func TestAutoWidenNoOpWhenCovered(t *testing.T) {
	var got collector
	sup := ingest.New(got.deliver, ingest.Config{
		AutoWiden: true, DedupTTL: -1,
	})
	defer sup.Close()

	all := hubSource{feedtypes.NewHub(), "all"}
	idAll := sup.AddSource("all", all, feedtypes.Filter{}) // match-all
	wide := hubSource{feedtypes.NewHub(), "wide"}
	idWide := sup.AddSource("wide", wide, watch("10.0.0.0/16"))
	narrow := hubSource{feedtypes.NewHub(), "narrow"}
	idNarrow := sup.AddSource("narrow", narrow, watch("10.0.0.0/24"))

	sup.Remove(idNarrow)

	if f, ok := sup.EffectiveFilter(idAll); !ok || !f.MatchAll() {
		t.Fatalf("match-all survivor changed: %+v", f)
	}
	// /16 with MoreSpecific already covers the /24 hole.
	if f, ok := sup.EffectiveFilter(idWide); !ok || len(f.Prefixes) != 1 {
		t.Fatalf("covering survivor widened needlessly: %+v", f)
	}
}
