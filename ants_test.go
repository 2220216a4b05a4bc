package ants_test

import (
	"testing"

	ants "repro"
	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/search"
	"repro/internal/sim"
)

func TestFacadeNonUniformSearch(t *testing.T) {
	const d = 16
	factory, err := ants.NonUniformSearch(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ants.Run(ants.Config{
		NumAgents:  4,
		Target:     ants.Point{X: d, Y: -d},
		HasTarget:  true,
		MoveBudget: d * d * 512,
	}, factory, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("facade search did not find the target")
	}
}

func TestFacadeAudits(t *testing.T) {
	a, err := ants.NonUniformAudit(1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chi() != 7 { // b = 3 + log 16 = 7, ℓ = 1
		t.Errorf("non-uniform χ = %v, want 7", a.Chi())
	}
	u, err := ants.UniformAudit(1, 4, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if u.B < a.B {
		t.Errorf("uniform b = %d should exceed non-uniform b = %d", u.B, a.B)
	}
	if _, err := ants.NonUniformAudit(1, 1); err == nil {
		t.Error("bad distance should fail")
	}
	if _, err := ants.UniformAudit(0, 1, 4); err == nil {
		t.Error("bad ℓ should fail")
	}
}

func TestFacadeMachines(t *testing.T) {
	m := ants.RandomWalkMachine()
	analysis, err := ants.AnalyzeMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.Recurrent) != 1 {
		t.Errorf("random walk recurrent classes = %d", len(analysis.Recurrent))
	}
	dm, err := automata.DriftLineMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	if dm.NumStates() != 4 {
		t.Errorf("drift machine states = %d, want 4", dm.NumStates())
	}
	am, err := search.Algorithm1Machine(8)
	if err != nil {
		t.Fatal(err)
	}
	if am.NumStates() != 5 {
		t.Errorf("Algorithm 1 machine states = %d, want 5", am.NumStates())
	}
}

func TestFacadeBaselines(t *testing.T) {
	if f := ants.RandomWalkSearch(); f == nil {
		t.Error("nil random walk factory")
	}
	if f := baseline.SpiralFactory(); f == nil {
		t.Error("nil spiral factory")
	}
	if _, err := ants.FeinermanSearch(0); err == nil {
		t.Error("feinerman with n=0 should fail")
	}
	f, err := sim.MachineFactory(ants.RandomWalkMachine(), 100)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ants.RunTrials(ants.Config{
		NumAgents:  2,
		Target:     ants.Point{X: 1, Y: 0},
		HasTarget:  true,
		MoveBudget: 1000,
	}, f, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != 5 {
		t.Errorf("trials = %d", st.Trials)
	}
}

func TestFacadePlacedTrials(t *testing.T) {
	factory, err := ants.UniformSearch(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ants.RunPlacedTrials(ants.Config{
		NumAgents:  4,
		MoveBudget: 1 << 22,
	}, ants.PlaceUniformBall, 8, factory, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if st.FoundFrac < 0.8 {
		t.Errorf("found fraction = %v", st.FoundFrac)
	}
}
