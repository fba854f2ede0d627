package fleet

import (
	"fmt"
	"time"

	"artemis/internal/experiment"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/hijack"
	"artemis/internal/prefix"
)

// Verdicts a trial can earn against its class expectation.
const (
	VerdictOK        = "ok"
	VerdictFN        = "fn"         // expected an alert, got none
	VerdictFP        = "fp"         // expected silence, got an alert
	VerdictWrongType = "wrong-type" // alerted, but misclassified
	VerdictError     = "error"      // the trial itself failed
)

// Result is one scenario's outcome.
type Result struct {
	Scenario Scenario         `json:"scenario"`
	Expect   Expectation      `json:"expect"`
	Verdict  string           `json:"verdict"`
	Detail   string           `json:"detail,omitempty"`
	Trial    experiment.Trial `json:"trial"`
	// Shrunk is the minimized scenario still reproducing the failure
	// (filled in by the fleet driver when shrinking is enabled).
	Shrunk *Scenario `json:"shrunk,omitempty"`
	// Reproducer is the exported replay sidecar's file name, when the
	// driver wrote one.
	Reproducer string `json:"reproducer,omitempty"`
}

// Failed reports whether the trial missed its expectation.
func (r Result) Failed() bool { return r.Verdict != VerdictOK }

// steps compiles the scenario's campaign into a timed event script.
func (sc Scenario) steps() ([]experiment.ScriptStep, error) {
	spec, err := sc.spec()
	if err != nil {
		return nil, err
	}
	attack := experiment.ScriptStep{
		After:  sc.HijackDelay,
		Name:   "hijack",
		Hijack: true,
		Do: func(e *experiment.Env) error {
			_, err := e.LaunchAttack()
			return err
		},
	}
	switch spec.campaign {
	case "":
		return []experiment.ScriptStep{attack}, nil

	case campaignOutage:
		// Kill the source whose coverage slice holds the target, then
		// hijack into the hole. SplitCoverage assigns prefix j to source
		// j mod len(sources), so the dying source is determined by the
		// target's position in the owned set.
		idx, err := sc.ownedIndex()
		if err != nil {
			return nil, err
		}
		name := outageSources[idx%len(outageSources)]
		kill := experiment.ScriptStep{
			Name: "feed outage: " + name,
			Do: func(e *experiment.Env) error {
				id, ok := e.SourceIDs[name]
				if !ok {
					return fmt.Errorf("fleet: no supervised source %q", name)
				}
				e.Ingest.Remove(id)
				return nil
			},
		}
		attack.After = maxDuration(sc.HijackDelay, time.Minute)
		return []experiment.ScriptStep{kill, attack}, nil

	case campaignReconfig:
		// Swap in a (cloned, identical) config snapshot through the
		// pipeline barrier 20 s into the incident — detection typically
		// lands ~45 s in, so classification straddles the swap.
		swap := experiment.ScriptStep{
			After: 20 * time.Second,
			Name:  "config swap",
			Do: func(e *experiment.Env) error {
				return e.Reconfigure(e.Artemis.CurrentConfig())
			},
		}
		return []experiment.ScriptStep{attack, swap}, nil

	case campaignRemit:
		// Sub-prefix hijack against another owned prefix first; the
		// measured attack strikes while that incident's mitigation is
		// still propagating.
		other, err := sc.otherOwned()
		if err != nil {
			return nil, err
		}
		prior := experiment.ScriptStep{
			Name: "prior incident: " + other,
			Do: func(e *experiment.Env) error {
				op, err := prefix.Parse(other)
				if err != nil {
					return err
				}
				tgt, err := hijack.AttackPrefix(hijack.SubPrefix, op)
				if err != nil {
					return err
				}
				return e.Attacker.Announce(e.Net, tgt)
			},
		}
		attack.After = maxDuration(sc.HijackDelay, 2*time.Minute)
		return []experiment.ScriptStep{prior, attack}, nil
	}
	return nil, fmt.Errorf("fleet: unknown campaign %q", spec.campaign)
}

// Run executes the scenario in a fresh environment and judges the trial
// against the class expectation. Deterministic per (scenario, seed).
func Run(sc Scenario) Result {
	return run(sc, nil)
}

// run is Run with an optional tee observing every event batch delivered
// to the pipeline (the reproducer recorder hooks here).
func run(sc Scenario, tee func([]feedtypes.Event)) Result {
	expect, err := sc.Expect()
	if err != nil {
		return errResult(sc, Expectation{}, err)
	}
	opts, err := sc.Options()
	if err != nil {
		return errResult(sc, expect, err)
	}
	opts.DeliverTee = tee
	steps, err := sc.steps()
	if err != nil {
		return errResult(sc, expect, err)
	}
	env, err := experiment.Build(opts)
	if err != nil {
		return errResult(sc, expect, err)
	}
	defer env.Close()
	tr, err := experiment.RunScript(env, steps)
	if err != nil {
		return errResult(sc, expect, err)
	}
	return evaluate(sc, expect, tr)
}

func errResult(sc Scenario, expect Expectation, err error) Result {
	return Result{Scenario: sc, Expect: expect, Verdict: VerdictError, Detail: err.Error()}
}

// evaluate judges a finished trial against the expectation.
func evaluate(sc Scenario, expect Expectation, tr experiment.Trial) Result {
	res := Result{Scenario: sc, Expect: expect, Trial: tr, Verdict: VerdictOK}
	switch {
	case expect.Detect && !tr.Detected:
		res.Verdict = VerdictFN
		res.Detail = fmt.Sprintf("no alert; %d ASes captured", tr.EverCaptured)
	case !expect.Detect && tr.Detected:
		res.Verdict = VerdictFP
		res.Detail = fmt.Sprintf("unexpected %s alert via %s", tr.AlertType, tr.DetectedBy)
	case tr.Detected && expect.Alert != "" && AlertName(tr.AlertType.String()) != expect.Alert:
		res.Verdict = VerdictWrongType
		res.Detail = fmt.Sprintf("classified %s, want %s", tr.AlertType, expect.Alert)
	}
	return res
}

// RunAll executes the scenarios serially (virtual-time trials are fast)
// and reports each result. Progress, when non-nil, is called after every
// trial.
func RunAll(scs []Scenario, progress func(Result)) []Result {
	out := make([]Result, len(scs))
	for i, sc := range scs {
		out[i] = Run(sc)
		if progress != nil {
			progress(out[i])
		}
	}
	return out
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
