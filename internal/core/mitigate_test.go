package core

import (
	"fmt"
	"testing"
	"time"

	"artemis/internal/controller"
	"artemis/internal/prefix"
	"artemis/internal/sim"
	"artemis/internal/simnet"
	"artemis/internal/topo"
)

func simWorld(t *testing.T) (*simnet.Network, *sim.Engine, *controller.Controller) {
	t.Helper()
	tp := topo.Line(3, time.Millisecond)
	eng := sim.NewEngine(1)
	nw := simnet.New(tp, eng, simnet.Config{MRAI: simnet.Disabled, ProcMin: time.Millisecond, ProcMax: 2 * time.Millisecond})
	inj, err := controller.NewSimInjector(nw, topo.FirstASN)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.NewSim(nw, inj, controller.WithConfigDelay(time.Second))
	return nw, eng, ctrl
}

func alertOf(typ AlertType, p, owned string) Alert {
	return Alert{Type: typ, Prefix: prefix.MustParse(p), Owned: prefix.MustParse(owned), Origin: 666}
}

func TestMitigationPrefixesExact(t *testing.T) {
	_, _, ctrl := simWorld(t)
	m := NewMitigator(testConfig(), ctrl, func() time.Duration { return 0 })
	prefixes, competitive := m.MitigationPrefixes(alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23"))
	if competitive {
		t.Fatal("a /23 hijack is strictly mitigable")
	}
	if len(prefixes) != 2 || prefixes[0].String() != "10.0.0.0/24" || prefixes[1].String() != "10.0.1.0/24" {
		t.Fatalf("prefixes = %v", prefixes)
	}
}

func TestMitigationPrefixesSubPrefix(t *testing.T) {
	_, _, ctrl := simWorld(t)
	cfg := testConfig()
	cfg.OwnedPrefixes = []prefix.Prefix{prefix.MustParse("10.0.0.0/22")}
	m := NewMitigator(cfg, ctrl, func() time.Duration { return 0 })
	// Attacker announced a /23 inside our /22: respond with its two /24s.
	prefixes, competitive := m.MitigationPrefixes(alertOf(AlertSubPrefix, "10.0.2.0/23", "10.0.0.0/22"))
	if competitive || len(prefixes) != 2 || prefixes[0].String() != "10.0.2.0/24" {
		t.Fatalf("prefixes = %v competitive = %v", prefixes, competitive)
	}
}

func TestMitigationPrefixesSlash24IsCompetitive(t *testing.T) {
	_, _, ctrl := simWorld(t)
	cfg := testConfig()
	cfg.OwnedPrefixes = []prefix.Prefix{prefix.MustParse("10.0.0.0/24")}
	m := NewMitigator(cfg, ctrl, func() time.Duration { return 0 })
	prefixes, competitive := m.MitigationPrefixes(alertOf(AlertExactOrigin, "10.0.0.0/24", "10.0.0.0/24"))
	if !competitive {
		t.Fatal("/24 mitigation must be flagged competitive (§2 caveat)")
	}
	if len(prefixes) != 1 || prefixes[0].String() != "10.0.0.0/24" {
		t.Fatalf("prefixes = %v", prefixes)
	}
}

func TestMitigationPrefixesSquat(t *testing.T) {
	_, _, ctrl := simWorld(t)
	m := NewMitigator(testConfig(), ctrl, func() time.Duration { return 0 })
	prefixes, competitive := m.MitigationPrefixes(alertOf(AlertSquat, "10.0.0.0/16", "10.0.0.0/23"))
	if competitive || len(prefixes) != 1 || prefixes[0].String() != "10.0.0.0/23" {
		t.Fatalf("squat response = %v competitive=%v", prefixes, competitive)
	}
}

func TestHandleAlertAnnouncesViaController(t *testing.T) {
	nw, eng, ctrl := simWorld(t)
	m := NewMitigator(testConfig(), ctrl, nw.Engine.Now)
	m.HandleAlert(alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23"))
	eng.Run()
	for _, s := range []string{"10.0.0.0/24", "10.0.1.0/24"} {
		if _, ok := nw.Node(topo.FirstASN + 2).BestRoute(prefix.MustParse(s)); !ok {
			t.Fatalf("%s not propagated", s)
		}
	}
	recs := m.Records()
	if len(recs) != 1 || len(recs[0].Prefixes) != 2 || recs[0].Competitive {
		t.Fatalf("records = %+v", recs)
	}
}

// failingAnnouncer rejects announcements after the first `okBefore`
// calls — the shape of a mid-loop southbound failure.
type failingAnnouncer struct {
	calls     int
	okBefore  int
	announced []prefix.Prefix
}

func (f *failingAnnouncer) Announce(p prefix.Prefix) error {
	f.calls++
	if f.calls > f.okBefore {
		return fmt.Errorf("southbound down (call %d)", f.calls)
	}
	f.announced = append(f.announced, p)
	return nil
}

// TestHandleAlertFailureRecordedAndRetryable: a controller failure must
// leave a failed record (with the partial set of announcements already in
// flight), bump the failure counter, and release the incident so a retry
// can succeed — not vanish silently with done[key] set.
func TestHandleAlertFailureRecordedAndRetryable(t *testing.T) {
	ann := &failingAnnouncer{okBefore: 1} // first /24 accepted, second fails
	m := NewMitigator(testConfig(), ann, func() time.Duration { return 0 })
	a := alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23")

	m.HandleAlert(a)
	recs := m.Records()
	if len(recs) != 1 || !recs[0].Failed() {
		t.Fatalf("failed mitigation not recorded: %+v", recs)
	}
	if len(recs[0].Announced) != 1 || recs[0].Announced[0].String() != "10.0.0.0/24" {
		t.Fatalf("partial announcements untracked: %+v", recs[0])
	}
	if m.Failures() != 1 {
		t.Fatalf("failure counter = %d, want 1", m.Failures())
	}

	// The incident was released: a retry runs mitigation again and, with
	// the southbound back, succeeds — announcing only the missing prefix,
	// not duplicating the one already in flight.
	ann.okBefore = 1 << 30
	m.HandleAlert(a)
	recs = m.Records()
	if len(recs) != 2 || recs[1].Failed() {
		t.Fatalf("retry did not run or failed: %+v", recs)
	}
	if len(recs[1].Announced) != 1 || recs[1].Announced[0].String() != "10.0.1.0/24" {
		t.Fatalf("retry announced %v, want just the missing 10.0.1.0/24", recs[1].Announced)
	}
	if len(ann.announced) != 2 {
		t.Fatalf("controller saw %v: duplicate or missing announcements", ann.announced)
	}
	// …and the incident is now done: a third call is a no-op.
	m.HandleAlert(a)
	if len(m.Records()) != 2 {
		t.Fatalf("mitigation re-ran after success: %+v", m.Records())
	}
}

// TestAsyncFailureFeedbackReleasesIncident exercises the path a real
// (asynchronous) controller takes: Announce succeeds immediately, the
// southbound fails later, and the failure comes back via
// NoteAnnounceFailure (called from the Service's request completion). The
// incident must be marked failed, counted, and become retryable — with
// the retry re-announcing exactly the failed prefix.
func TestAsyncFailureFeedbackReleasesIncident(t *testing.T) {
	ann := &failingAnnouncer{okBefore: 1 << 30} // controller accepts everything
	m := NewMitigator(testConfig(), ann, func() time.Duration { return 0 })
	a := alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23")

	m.HandleAlert(a)
	if recs := m.Records(); len(recs) != 1 || recs[0].Failed() {
		t.Fatalf("records = %+v", recs)
	}
	// The southbound later rejects BOTH /24s: the second failure must not
	// be swallowed by the already-failed record.
	m.NoteAnnounceFailure(prefix.MustParse("10.0.1.0/24"), fmt.Errorf("session down"))
	m.NoteAnnounceFailure(prefix.MustParse("10.0.0.0/24"), fmt.Errorf("session down"))
	recs := m.Records()
	if !recs[0].Failed() {
		t.Fatalf("async failure not reflected in record: %+v", recs[0])
	}
	if m.Failures() != 2 {
		t.Fatalf("failures = %d, want 2", m.Failures())
	}
	// Retry (e.g. operator-triggered) re-announces both failed /24s.
	m.HandleAlert(a)
	recs = m.Records()
	if len(recs) != 2 || len(recs[1].Announced) != 2 {
		t.Fatalf("retry records = %+v", recs)
	}
	if len(ann.announced) != 4 { // two originals + two re-announces
		t.Fatalf("controller saw %v", ann.announced)
	}
}

// TestAsyncFailureSinglePrefix: when only one of two announcements fails
// downstream, the retry re-announces exactly that one.
func TestAsyncFailureSinglePrefix(t *testing.T) {
	ann := &failingAnnouncer{okBefore: 1 << 30}
	m := NewMitigator(testConfig(), ann, func() time.Duration { return 0 })
	a := alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23")
	m.HandleAlert(a)
	m.NoteAnnounceFailure(prefix.MustParse("10.0.1.0/24"), fmt.Errorf("session down"))
	m.HandleAlert(a)
	recs := m.Records()
	if len(recs) != 2 || len(recs[1].Announced) != 1 || recs[1].Announced[0].String() != "10.0.1.0/24" {
		t.Fatalf("retry records = %+v", recs)
	}
	if len(ann.announced) != 3 {
		t.Fatalf("controller saw %v", ann.announced)
	}
}

func TestHandleAlertIdempotent(t *testing.T) {
	nw, eng, ctrl := simWorld(t)
	m := NewMitigator(testConfig(), ctrl, nw.Engine.Now)
	a := alertOf(AlertExactOrigin, "10.0.0.0/23", "10.0.0.0/23")
	m.HandleAlert(a)
	m.HandleAlert(a)
	eng.Run()
	if len(m.Records()) != 1 {
		t.Fatalf("records = %+v", m.Records())
	}
	if len(ctrl.Actions()) != 2 {
		t.Fatalf("controller actions = %+v (duplicate mitigation ran)", ctrl.Actions())
	}
}
