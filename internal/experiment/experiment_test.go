package experiment

import (
	"testing"
	"time"

	"artemis/internal/core"
	"artemis/internal/hijack"
	"artemis/internal/prefix"
	"artemis/internal/topo"
)

// smallOpts shrinks the Internet so the full test suite stays fast while
// keeping multi-hop structure.
func smallOpts(seed int64) Options {
	cfg := topo.DefaultGenConfig()
	cfg.Stubs = 100
	cfg.Transit = 30
	cfg.Seed = seed
	return Options{Seed: seed, Topo: cfg}
}

func TestBuildEnv(t *testing.T) {
	env, err := Build(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if env.RIS == nil || env.BGPmon == nil || env.Periscope == nil {
		t.Fatal("not all sources built by default")
	}
	if len(env.Sources) != 3 {
		t.Fatalf("sources = %d", len(env.Sources))
	}
	if len(env.MonitoredVPs) == 0 {
		t.Fatal("no vantage points")
	}
	if env.Victim.ASN != VictimASN || env.Attacker.ASN != AttackerASN {
		t.Fatal("virtual AS numbering broken")
	}
	// Victim and attacker muxes must be disjoint.
	for _, vm := range env.Victim.Muxes {
		for _, am := range env.Attacker.Muxes {
			if vm == am {
				t.Fatalf("mux %v shared by victim and attacker", vm)
			}
		}
	}
}

func TestBuildSourceSubset(t *testing.T) {
	opts := smallOpts(1)
	opts.Sources = []string{SrcRIS}
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.RIS == nil || env.BGPmon != nil || env.Periscope != nil {
		t.Fatal("source subset not honored")
	}
}

func TestRunTrialPaperShape(t *testing.T) {
	env, err := Build(smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	// Shape of §3: detection well under 2 minutes, trigger = controller
	// delay (~15s), full mitigation within minutes, everything recovered.
	if tr.DetectionDelay <= 0 || tr.DetectionDelay > 2*time.Minute {
		t.Fatalf("detection delay = %v", tr.DetectionDelay)
	}
	if tr.TriggerDelay < 10*time.Second || tr.TriggerDelay > 30*time.Second {
		t.Fatalf("trigger delay = %v", tr.TriggerDelay)
	}
	if tr.Total <= 0 || tr.Total > 15*time.Minute {
		t.Fatalf("total = %v", tr.Total)
	}
	if tr.RecoveredFrac != 1.0 || tr.StillCaptured != 0 {
		t.Fatalf("not fully recovered: %+v", tr)
	}
	if tr.EverCaptured == 0 || tr.PeakCaptured == 0 {
		t.Fatal("hijack captured nothing — topology too small or attacker isolated")
	}
	if tr.DetectedBy == "" {
		t.Fatal("detection source not recorded")
	}
}

func TestRunTrialSubPrefix(t *testing.T) {
	// Victim owns a /22 so the attacker's /23 slice can be beaten with
	// /24s (still above the filtering limit).
	opts := smallOpts(5)
	opts.Owned = prefix.MustParse("10.0.0.0/22")
	opts.Kind = hijack.SubPrefix
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Detected || tr.RecoveredFrac != 1.0 {
		t.Fatalf("sub-prefix hijack not fully mitigated: %+v", tr)
	}
	alerts := env.Artemis.Detector.Alerts()
	if len(alerts) == 0 || alerts[0].Prefix.String() != "10.0.0.0/23" {
		t.Fatalf("alerts = %+v", alerts)
	}
	recs := env.Artemis.Mitigator.Records()
	if len(recs) != 1 || len(recs[0].Prefixes) != 2 || recs[0].Competitive {
		t.Fatalf("mitigation = %+v", recs)
	}
}

func TestRunTrialSlash24NotFullyRecoverable(t *testing.T) {
	opts := smallOpts(7)
	opts.Owned = prefix.MustParse("10.0.0.0/24")
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	recs := env.Artemis.Mitigator.Records()
	if len(recs) != 1 || !recs[0].Competitive {
		t.Fatalf("/24 mitigation should be competitive: %+v", recs)
	}
	// The victim already originates the /24, so the competitive
	// re-announcement adds nothing: captured ASes stay captured — the
	// §2 caveat in its starkest form.
	if tr.RecoveredFrac >= 1.0 {
		t.Fatalf("/24 hijack fully recovered (%.2f); the §2 caveat should bite", tr.RecoveredFrac)
	}
	if tr.StillCaptured == 0 {
		t.Fatalf("expected lasting capture: %+v", tr)
	}
}

// Forged-origin exact-prefix hijacks (Type-0 with the victim's ASN faked
// at the path tail) evade every origin check: the detector is blind
// without an upstream policy, while ground truth shows real capture.
func TestPathFakeBlindWithoutUpstreamPolicy(t *testing.T) {
	opts := smallOpts(1)
	opts.Kind = hijack.PathFake
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Detected {
		t.Fatalf("forged-origin exact hijack should evade origin checks: %+v", tr)
	}
	if tr.EverCaptured == 0 {
		t.Fatal("forged announcement captured nothing — attack not injected")
	}
}

func TestPathFakeCaughtByUpstreamPolicy(t *testing.T) {
	opts := smallOpts(1)
	opts.Kind = hijack.PathFake
	opts.UpstreamPolicy = true
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Detected {
		t.Fatalf("upstream policy should catch the forged first hop: %+v", tr)
	}
	if tr.AlertType != core.AlertPathAnomaly {
		t.Fatalf("alert type = %v, want path anomaly", tr.AlertType)
	}
}

// A second legitimate origin announcing the owned prefix (anycast
// partner) is a MOAS event ARTEMIS must stay silent on.
func TestLegitMOASNoAlert(t *testing.T) {
	opts := smallOpts(1)
	opts.Kind = hijack.LegitMOAS
	opts.Partner = true
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Detected {
		t.Fatalf("legitimate MOAS raised an alert: %+v", env.Artemis.Detector.Alerts())
	}
	if tr.EverCaptured != 0 {
		t.Fatalf("partner origin counted as capture: %+v", tr)
	}
}

// A route leak keeps the legitimate origin on every path: no alert, no
// capture — the detector's scope boundary, exercised as a control.
func TestRouteLeakNoAlert(t *testing.T) {
	opts := smallOpts(2)
	opts.Kind = hijack.RouteLeak
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tr, err := RunTrial(env)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Detected {
		t.Fatalf("route leak raised an alert: %+v", env.Artemis.Detector.Alerts())
	}
	if tr.EverCaptured != 0 {
		t.Fatalf("leaked-but-legit paths counted as capture: %+v", tr)
	}
}

// Killing the only source covering the attacked prefix mid-trial must
// not blind detection: with SplitCoverage the supervisor widens the
// survivor's filter to absorb the dead source's slice. Run under -race
// in CI, this also exercises the widen path's locking.
func TestSourceDeathAutoWidensCoverage(t *testing.T) {
	opts := smallOpts(3)
	opts.Sources = []string{SrcRIS, SrcBGPmon}
	opts.OwnedSet = []prefix.Prefix{
		prefix.MustParse("10.0.0.0/23"),
		prefix.MustParse("10.0.2.0/23"),
	}
	opts.Owned = opts.OwnedSet[0] // RIS's slice under SplitCoverage
	opts.SplitCoverage = true
	env, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tr, err := RunScript(env, []ScriptStep{
		{Name: "kill ris", Do: func(e *Env) error {
			e.Ingest.Remove(e.SourceIDs[SrcRIS])
			return nil
		}},
		{After: time.Minute, Name: "hijack", Hijack: true, Do: func(e *Env) error {
			_, err := e.LaunchAttack()
			return err
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Detected {
		t.Fatal("hijack undetected after source death — coverage hole not widened")
	}
	if tr.DetectedBy != SrcBGPmon {
		t.Fatalf("detected by %q, want the widened survivor %q", tr.DetectedBy, SrcBGPmon)
	}
	f, ok := env.Ingest.EffectiveFilter(env.SourceIDs[SrcBGPmon])
	if !ok || len(f.Prefixes) != 2 {
		t.Fatalf("survivor filter not widened: %+v ok=%v", f, ok)
	}
}

// TestEnvReconfigure: Env.Reconfigure installs a config at exactly one
// pipeline barrier mid-trial, keeps the tenant's runtime, and refuses an
// invalid config without taking a barrier. Shedding the attacked prefix
// before the hijack silences it; the same script without the swap alerts.
func TestEnvReconfigure(t *testing.T) {
	attacked, kept := prefix.MustParse("10.0.0.0/23"), prefix.MustParse("172.16.0.0/22")
	run := func(t *testing.T, shed bool) Trial {
		opts := smallOpts(3)
		opts.OwnedSet = []prefix.Prefix{attacked, kept}
		opts.Owned = attacked
		env, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		swap := func(e *Env) error {
			if !shed {
				return nil
			}
			before := e.Artemis.CurrentConfig()
			reconfigs := e.Pipeline.Snapshot().Reconfigs
			if err := e.Reconfigure(&core.Config{}); err == nil {
				t.Error("invalid config accepted")
			}
			if got := e.Pipeline.Snapshot().Reconfigs; got != reconfigs {
				t.Errorf("rejected config took %d barriers", got-reconfigs)
			}
			if e.Artemis.CurrentConfig() != before {
				t.Error("rejected config replaced the current one")
			}

			rt := e.table.Runtime("")
			events := rt.Events()
			next := before.Clone()
			next.OwnedPrefixes = []prefix.Prefix{kept}
			if err := e.Reconfigure(next); err != nil {
				return err
			}
			if got := e.Pipeline.Snapshot().Reconfigs; got != reconfigs+1 {
				t.Errorf("one Reconfigure took %d barriers", got-reconfigs)
			}
			if e.table.Runtime("") != rt || rt.Events() != events || events == 0 {
				t.Errorf("tenant runtime did not carry over: %d events before the swap, %d after",
					events, e.table.Runtime("").Events())
			}
			if got := e.Artemis.CurrentConfig(); len(got.OwnedPrefixes) != 1 || got.Self != before.Self {
				t.Errorf("swapped config = %+v", got)
			}
			return nil
		}
		tr, err := RunScript(env, []ScriptStep{
			{Name: "shed the attacked prefix", Do: swap},
			{After: time.Minute, Name: "hijack", Hijack: true, Do: func(e *Env) error {
				_, err := e.LaunchAttack()
				return err
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if tr := run(t, false); !tr.Detected {
		t.Fatal("hijack of an owned prefix undetected without the swap")
	}
	if tr := run(t, true); tr.Detected {
		t.Fatalf("hijack of a shed prefix alerted: %+v", tr)
	}
}

// E1 headline latencies must hold for a v6-only victim and for each
// family of a mixed v4/v6 owned set.
func TestE1MixedFamilies(t *testing.T) {
	mixed := []prefix.Prefix{
		prefix.MustParse("10.0.0.0/23"),
		prefix.MustParse("2001:db8::/47"),
	}
	cases := []struct {
		name  string
		set   []prefix.Prefix
		owned prefix.Prefix
	}{
		{"v6-only", nil, prefix.MustParse("2001:db8::/47")},
		{"mixed-attack-v4", mixed, mixed[0]},
		{"mixed-attack-v6", mixed, mixed[1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(111)
			opts.OwnedSet = tc.set
			opts.Owned = tc.owned
			res, err := E1(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Detection.Mean <= 0 || res.Detection.Mean > 2*time.Minute {
				t.Fatalf("detection mean = %v", res.Detection.Mean)
			}
			if res.Total.Mean > 15*time.Minute {
				t.Fatalf("total mean = %v", res.Total.Mean)
			}
		})
	}
}

// E2's min-of-sources property must hold when the owned set spans both
// families.
func TestE2MixedFamilySet(t *testing.T) {
	opts := smallOpts(121)
	opts.OwnedSet = []prefix.Prefix{
		prefix.MustParse("10.0.0.0/23"),
		prefix.MustParse("2001:db8::/47"),
	}
	opts.Owned = opts.OwnedSet[1]
	res, err := E2(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined.N != 2 {
		t.Fatalf("combined = %+v", res.Combined)
	}
	for name, s := range res.PerSource {
		if s.N == res.Combined.N && res.Combined.Mean > s.Mean+time.Millisecond {
			t.Fatalf("combined mean %v exceeds %s mean %v", res.Combined.Mean, name, s.Mean)
		}
	}
}

func TestE1Aggregates(t *testing.T) {
	res, err := E1(3, smallOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.N != 3 || res.Total.N != 3 {
		t.Fatalf("summaries = %+v", res)
	}
	if res.Detection.Mean <= 0 || res.Total.Mean < res.Detection.Mean {
		t.Fatalf("ordering broken: %+v", res)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestE2MinOfSources(t *testing.T) {
	res, err := E2(3, smallOpts(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) < 2 {
		t.Fatalf("per-source data missing: %+v", res.PerSource)
	}
	// The combined delay can never exceed a source's delay on the same
	// trials (min property, §2). Sources that missed some trials have
	// fewer samples; compare only full-coverage sources.
	for name, s := range res.PerSource {
		if s.N == res.Combined.N && res.Combined.Mean > s.Mean+time.Millisecond {
			t.Fatalf("combined mean %v exceeds %s mean %v", res.Combined.Mean, name, s.Mean)
		}
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestE3MoreLGsBetterCoverageAndCost(t *testing.T) {
	rows, err := E3(3, []int{2, 24}, []string{SelectRandom}, smallOpts(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	small, large := rows[0], rows[1]
	if large.QueriesPerMin <= small.QueriesPerMin {
		t.Fatalf("more LGs should cost more: %v vs %v", small.QueriesPerMin, large.QueriesPerMin)
	}
	// The benefit side of the trade-off: a large arsenal must not be
	// worse on both coverage and speed.
	better := large.DetectionRate > small.DetectionRate ||
		(large.Detection.N > 0 && small.Detection.N > 0 && large.Detection.Mean < small.Detection.Mean) ||
		(large.Detection.N > 0 && small.Detection.N == 0)
	if !better {
		t.Fatalf("24 LGs no better than 2: %+v vs %+v", large, small)
	}
	if large.DetectionRate == 0 {
		t.Fatal("24-LG arsenal should detect at least sometimes")
	}
	if E3Table(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestE3Strategies(t *testing.T) {
	rows, err := E3(1, []int{4}, []string{SelectRandom, SelectDegree, SelectGeo}, smallOpts(41))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestE4Slash24Caveat(t *testing.T) {
	rows, err := E4(1, []int{23, 24}, smallOpts(51))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Competitive || rows[0].RecoveredFrac != 1.0 {
		t.Fatalf("/23 should fully recover: %+v", rows[0])
	}
	if !rows[1].Competitive || rows[1].RecoveredFrac >= 1.0 {
		t.Fatalf("/24 should be competitive and partial: %+v", rows[1])
	}
	if E4Table(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestE6TimelineShape(t *testing.T) {
	res, err := E6(smallOpts(61))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The fraction must dip during the hijack and return to 1.0.
	minFrac, last := 1.0, res.Points[len(res.Points)-1]
	for _, p := range res.Points {
		if p.FractionLegit < minFrac {
			minFrac = p.FractionLegit
		}
	}
	if minFrac >= 1.0 {
		t.Fatal("timeline never dipped — hijack invisible to monitor")
	}
	if last.FractionLegit != 1.0 {
		t.Fatalf("timeline did not recover: %+v", last)
	}
}

func TestE5BaselineMuchSlower(t *testing.T) {
	res, err := E5(2, smallOpts(71))
	if err != nil {
		t.Fatal(err)
	}
	// The archive pipeline (15-minute files + manual verification) must be
	// far slower than ARTEMIS end to end.
	if res.BaselineResponse.Mean < 2*res.ArtemisResponse.Mean {
		t.Fatalf("baseline %v not clearly slower than ARTEMIS %v",
			res.BaselineResponse.Mean, res.ArtemisResponse.Mean)
	}
	// ARTEMIS catches more in-progress hijacks than the baseline, and the
	// sampled duration distribution matches the paper's anchor.
	if res.ArtemisCoverage <= res.BaselineCoverage {
		t.Fatalf("coverage: artemis %.2f vs baseline %.2f", res.ArtemisCoverage, res.BaselineCoverage)
	}
	if res.ShortHijackFrac < 0.20 || res.ShortHijackFrac > 0.30 {
		t.Fatalf("short-hijack fraction = %.2f", res.ShortHijackFrac)
	}
	if res.ArtemisCoverage < 0.80 {
		t.Fatalf("ARTEMIS should outpace >80%% of hijacks (paper §3), got %.2f", res.ArtemisCoverage)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}
