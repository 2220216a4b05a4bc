package search

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func TestNonUniformFixedValidation(t *testing.T) {
	if _, err := NewNonUniformFixed(1); err == nil {
		t.Error("D=1 should fail")
	}
	if _, err := NewNonUniformFixed(MaxDistance + 1); err == nil {
		t.Error("huge D should fail")
	}
	if _, err := NonUniformFixedFactory(0); err == nil {
		t.Error("factory with D=0 should fail")
	}
}

func TestNonUniformFixedFindsTarget(t *testing.T) {
	const d = 16
	f, err := NonUniformFixedFactory(d)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunTrials(sim.Config{
		NumAgents:  4,
		Target:     grid.Point{X: d, Y: d / 2},
		HasTarget:  true,
		MoveBudget: 1 << 22,
	}, f, 15, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FoundAll {
		t.Errorf("found fraction = %v, want 1", st.FoundFrac)
	}
}

func TestNonUniformFixedAuditIsLogD(t *testing.T) {
	p, err := NewNonUniformFixed(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Audit()
	if a.B < 12 {
		t.Errorf("fixed-walk b = %d, want Θ(log D) ≥ 12", a.B)
	}
	// The whole point of AB3: χ(fixed) ≫ χ(geometric).
	geo, err := NewNonUniform(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chi() <= geo.Audit().Chi()+3 {
		t.Errorf("fixed χ = %v should clearly exceed geometric χ = %v",
			a.Chi(), geo.Audit().Chi())
	}
}

func TestUniformPhaseReturnVariantFindsTarget(t *testing.T) {
	const d = 16
	f, err := UniformFactory(1, 4, WithPhaseReturn())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunTrials(sim.Config{
		NumAgents:  4,
		Target:     grid.Point{X: -d, Y: d},
		HasTarget:  true,
		MoveBudget: 1 << 23,
	}, f, 15, 23)
	if err != nil {
		t.Fatal(err)
	}
	// The variant is expected to be WORSE than the faithful per-probe
	// return (that is what the AB1 ablation shows); it must still find
	// targets most of the time under a generous budget.
	if st.FoundFrac < 0.5 {
		t.Errorf("phase-return variant found fraction = %v, want ≥ 0.5", st.FoundFrac)
	}
}

func TestUniformPhaseReturnChainsProbes(t *testing.T) {
	// With per-phase return the agent is usually NOT at the origin between
	// probes; verify the behavioural difference is real by checking the
	// variant's flag plumbed through the option.
	u, err := NewUniform(1, 1, WithPhaseReturn())
	if err != nil {
		t.Fatal(err)
	}
	if !u.phaseReturn {
		t.Error("WithPhaseReturn did not set the flag")
	}
	u2, err := NewUniform(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u2.phaseReturn {
		t.Error("default must return per probe")
	}
}

func TestFixedWalkExact(t *testing.T) {
	// The ablation's exact-length walk is one Advance of the drawn length.
	src := simEnvSrc(t)
	env := sim.NewEnv(sim.EnvConfig{Src: src})
	env.Advance(grid.Up, 7)
	if env.Pos() != (grid.Point{X: 0, Y: 7}) {
		t.Errorf("fixed walk ended at %v, want (0,7)", env.Pos())
	}
	if env.Moves() != 7 {
		t.Errorf("moves = %d, want 7", env.Moves())
	}
}

func TestFixedWalkStopsOnTarget(t *testing.T) {
	src := simEnvSrc(t)
	env := sim.NewEnv(sim.EnvConfig{
		Target: grid.Point{X: 3, Y: 0}, HasTarget: true, Src: src})
	env.Advance(grid.Right, 10)
	if !env.Found() || env.Moves() != 3 {
		t.Errorf("found=%v moves=%d, want found at 3", env.Found(), env.Moves())
	}
}
