package oracle

import (
	"errors"
	"fmt"
	"strings"

	"github.com/tactic-icn/tactic/internal/core"
)

// Options configures one conformance run. The zero value is the
// standard gate: vanilla TACTIC semantics in every plane and a
// deterministic (FPRate 0) reference model. Tests inject semantics bugs
// by flipping core.Config knobs on one plane, or the mirrored Knobs on
// the oracle, and assert the harness reports the divergence.
type Options struct {
	// Scheme selects the enforcement backend for the whole run: it is
	// copied into both plane configs and the reference model's knobs, so
	// all three harnesses decide with the same engine semantics.
	Scheme core.Scheme
	// SimTactic / LiveTactic are the enforcement configs handed to the
	// sim-plane routers and the live forwarders respectively.
	SimTactic  core.Config
	LiveTactic core.Config
	// Knobs parameterizes the reference model.
	Knobs Knobs
	// SkipLive runs only oracle vs sim (used where wall-clock timing
	// would make a test slow or an FPRate oracle has no plane twin).
	SkipLive bool
}

// Divergence is one observable disagreement between the reference
// model and a plane.
type Divergence struct {
	// Request indexes Scenario.Requests, or -1 for an end-state
	// (content-store) divergence.
	Request int
	// Field names the compared observable, e.g. "delivered(live)" or
	// "cs[edge-0](sim)".
	Field string
	// Oracle and Got are the reference model's prediction and the
	// plane's observation.
	Oracle string
	Got    string
}

func (d Divergence) String() string {
	if d.Request < 0 {
		return fmt.Sprintf("%s: oracle=%s got=%s", d.Field, d.Oracle, d.Got)
	}
	return fmt.Sprintf("req[%d] %s: oracle=%s got=%s", d.Request, d.Field, d.Oracle, d.Got)
}

// Report is the outcome of replaying one scenario against the oracle
// and both planes.
type Report struct {
	Scenario    *Scenario
	Divergences []Divergence
}

// Diverged reports whether any observable disagreed.
func (r *Report) Diverged() bool { return len(r.Divergences) > 0 }

// RunSeed generates the scenario for a seed and replays it.
func RunSeed(seed int64, opts Options) (*Report, error) {
	scn, err := GenerateScenario(seed)
	if err != nil {
		return nil, err
	}
	return RunScenario(scn, opts)
}

// RunFloodSeed generates the TagFlood scenario for a seed and replays
// it: the flood gate proving all planes shed identically under a
// seeded verify-flood burst.
func RunFloodSeed(seed int64, opts Options) (*Report, error) {
	scn, err := GenerateFloodScenario(seed)
	if err != nil {
		return nil, err
	}
	return RunScenario(scn, opts)
}

// RunScenario replays one scenario against the reference model, the
// sim plane, and (unless opts.SkipLive) the live plane, and reports
// every per-request verdict and end-state disagreement.
func RunScenario(scn *Scenario, opts Options) (*Report, error) {
	info, err := buildTopo(scn)
	if err != nil {
		return nil, err
	}
	simTactic, liveTactic, knobs := opts.SimTactic, opts.LiveTactic, opts.Knobs
	if opts.Scheme != core.SchemeTACTIC {
		simTactic.Scheme = opts.Scheme
		liveTactic.Scheme = opts.Scheme
		knobs.Scheme = opts.Scheme
	}
	if scn.Flood != nil {
		// Flood scenarios verify at the edge — that is the hot path the
		// admission budget protects — with the scenario's budget mirrored
		// into the model unless the oracle-side "forgot to cap" injection
		// is active. Plane-side injections go through the planes' own
		// core.Config.DisableAdmission.
		simTactic.EdgeValidateOnMiss = true
		liveTactic.EdgeValidateOnMiss = true
		knobs.EdgeValidateOnMiss = true
		knobs.AdmissionBudget = scn.Flood.Budget
	}
	ref, err := RunReference(scn, info, knobs)
	if err != nil {
		return nil, err
	}
	sim, err := RunSim(scn, info, simTactic)
	if err != nil {
		return nil, err
	}
	var live *PlaneResult
	if !opts.SkipLive {
		live, err = RunLive(scn, info, liveTactic)
		if errors.Is(err, ErrTimingSkew) {
			// A loaded machine can miss a mid-run expiry window; the run
			// is invalid (not divergent), so try once more.
			live, err = RunLive(scn, info, liveTactic)
		}
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{Scenario: scn}
	diverge := func(req int, field, oracle, got string) {
		rep.Divergences = append(rep.Divergences, Divergence{Request: req, Field: field, Oracle: oracle, Got: got})
	}
	boolStr := func(b bool) string { return fmt.Sprintf("%t", b) }
	// Both planes run one pipeline and carry a NACK's reason to the
	// client (the NackReason TLV 0xF8), so they are held to one
	// prediction and every predicted NACK's reason is compared.
	planes := []struct {
		name string
		res  *PlaneResult
	}{{"sim", sim}, {"live", live}}
	for _, pl := range planes {
		if pl.res == nil {
			continue
		}
		for ri, o := range ref.Outcomes {
			got := pl.res.Outcomes[ri]
			if o.Delivered != got.Delivered {
				diverge(ri, "delivered("+pl.name+")", boolStr(o.Delivered), boolStr(got.Delivered))
			}
			if o.Nacked() != got.Nacked {
				diverge(ri, "nacked("+pl.name+")", boolStr(o.Nacked()), boolStr(got.Nacked))
			}
			if o.Nacked() && got.Nacked && o.Reason != got.Reason {
				diverge(ri, "reason("+pl.name+")", o.Reason, got.Reason)
			}
		}
		compareCS(ref.CS, pl.res.CS, pl.name, diverge)
	}
	return rep, nil
}

// compareCS checks a plane's end-state content stores against the
// oracle's prediction, router by router.
func compareCS(oracle, got map[string][]string, plane string, diverge func(int, string, string, string)) {
	for router, want := range oracle {
		have := got[router]
		if strings.Join(want, ",") != strings.Join(have, ",") {
			diverge(-1, fmt.Sprintf("cs[%s](%s)", router, plane),
				"{"+strings.Join(want, ",")+"}", "{"+strings.Join(have, ",")+"}")
		}
	}
	for router := range got {
		if _, ok := oracle[router]; !ok {
			diverge(-1, fmt.Sprintf("cs[%s](%s)", router, plane), "<absent>", "{"+strings.Join(got[router], ",")+"}")
		}
	}
}
