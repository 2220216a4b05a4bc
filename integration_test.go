package ants_test

import (
	"math"
	"strconv"
	"testing"

	ants "repro"
	"repro/internal/automata"
	"repro/internal/lowerbound"
	"repro/internal/search"
	"repro/internal/sim"
)

// TestIntegrationUpperVsLowerBound is the repository's end-to-end story in
// one test: the same adversarial target that every low-χ machine misses is
// found reliably by the paper's algorithm with χ just above log log D.
func TestIntegrationUpperVsLowerBound(t *testing.T) {
	const (
		d = 48
		n = 8
	)
	// Lower-bound side: analyze a drift machine, place the target off its
	// drift line, verify the swarm misses it within D² steps.
	m, err := automata.DriftLineMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := lowerbound.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	target, err := pred.AdversarialTarget(d)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := lowerbound.MeasureCoverage(m, lowerbound.CoverageConfig{
		D:         d,
		NumAgents: n,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if cov.FoundAdversarial {
		t.Error("drift machine found the adversarial target: placement is broken")
	}
	if cov.Fraction > 0.1 {
		t.Errorf("drift machine covered %v of the ball, want o(1)", cov.Fraction)
	}

	// Upper-bound side: Non-Uniform-Search against the very same target.
	factory, err := ants.NonUniformSearch(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ants.RunTrials(ants.Config{
		NumAgents:  n,
		Target:     target,
		HasTarget:  true,
		MoveBudget: d * d * 512,
	}, factory, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FoundAll {
		t.Errorf("non-uniform search found only %v of trials", st.FoundFrac)
	}

	// χ accounting ties the two sides together: the machine is below the
	// log log D threshold, the algorithm just above it.
	loglogD := math.Log2(math.Log2(d))
	if m.Chi() > loglogD+0.5 {
		t.Errorf("drift machine χ = %v not below threshold %v", m.Chi(), loglogD)
	}
	audit, err := ants.NonUniformAudit(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Chi() < loglogD {
		t.Errorf("algorithm χ = %v unexpectedly below log log D", audit.Chi())
	}
	if audit.Chi() > loglogD+5 {
		t.Errorf("algorithm χ = %v should be log log D + O(1)", audit.Chi())
	}
}

// TestIntegrationMachineVsProgramEndToEnd cross-validates the two
// representations of Algorithm 1 through the full simulation stack: both
// must find a fixed target with comparable expected M_moves.
func TestIntegrationMachineVsProgramEndToEnd(t *testing.T) {
	const (
		d      = 8
		trials = 60
	)
	target := ants.Point{X: d / 2, Y: -d / 2}

	progFactory, err := ants.NonUniformSearch(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := search.Algorithm1Machine(d)
	if err != nil {
		t.Fatal(err)
	}
	machFactory, err := sim.MachineFactory(machine, 0)
	if err != nil {
		t.Fatal(err)
	}

	mean := func(f ants.Factory) float64 {
		t.Helper()
		st, err := ants.RunTrials(ants.Config{
			NumAgents:  2,
			Target:     target,
			HasTarget:  true,
			MoveBudget: d * d * 4096,
		}, f, trials, 77)
		if err != nil {
			t.Fatal(err)
		}
		if !st.FoundAll {
			t.Fatalf("found fraction %v", st.FoundFrac)
		}
		var s float64
		for _, m := range st.Moves {
			s += m
		}
		return s / float64(len(st.Moves))
	}
	progMean := mean(progFactory)
	machMean := mean(machFactory)
	ratio := progMean / machMean
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("program mean %v vs machine mean %v: ratio %v outside [0.5, 2]",
			progMean, machMean, ratio)
	}
}

// TestIntegrationAlgorithm1MachineIsOutsideLowerBoundRegime verifies the
// internal consistency of the reproduction: the collapsed Algorithm 1
// machine must sit outside the Theorem 4.1 regime (its transition
// probabilities go down to 1/D²), otherwise the lower bound would
// contradict the upper bound.
func TestIntegrationAlgorithm1MachineIsOutsideLowerBoundRegime(t *testing.T) {
	for _, d := range []int64{16, 64, 256} {
		m, err := search.Algorithm1Machine(d)
		if err != nil {
			t.Fatal(err)
		}
		params, err := lowerbound.ComputeParams(m, d)
		if err != nil {
			t.Fatal(err)
		}
		if params.Applicable {
			t.Errorf("D=%d: Algorithm 1 machine (χ=%.2f) inside the lower-bound regime", d, params.Chi)
		}
		// And its recurrent structure keeps returning to the origin —
		// Corollary 4.5's case (1) applies to IT only because its p0 is
		// not bounded away from 1/D.
		pred, err := lowerbound.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.HasOriginClass {
			t.Errorf("D=%d: Algorithm 1 machine should recur to the origin", d)
		}
	}
}

// TestIntegrationDeterministicPipeline runs an experiment twice with the
// same seed and requires byte-identical tables — the reproducibility
// contract of the whole harness.
func TestIntegrationDeterministicPipeline(t *testing.T) {
	run := func() string {
		t.Helper()
		factory, err := ants.NonUniformSearch(16, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ants.RunPlacedTrials(ants.Config{
			NumAgents:  4,
			MoveBudget: 1 << 20,
		}, ants.PlaceUniformBall, 16, factory, 8, 123)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, m := range st.Moves {
			out += " " + strconv.FormatFloat(m, 'f', -1, 64)
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different trajectories:\n%s\n%s", a, b)
	}
}
