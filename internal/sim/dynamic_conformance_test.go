package sim

import (
	"math"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
)

// This file pins the dynamic-world extension with the same oracles the
// static scenario engine shipped with: a constant schedule must be
// indistinguishable from the static configuration it wraps (bit-identical
// trajectories under the same seed), the adaptive adversary must touch
// only the agents it kills, and heterogeneous colonies must decompose into
// the homogeneous runs of their families.

// assertSnapshotsEqual compares two per-round snapshot histories agent by
// agent.
func assertSnapshotsEqual(t *testing.T, label string, a, b *snapshotObserver) {
	t.Helper()
	if len(a.rounds) != len(b.rounds) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(a.rounds), len(b.rounds))
	}
	for r := range a.rounds {
		for i := range a.rounds[r] {
			if a.rounds[r][i] != b.rounds[r][i] {
				t.Fatalf("%s: round %d agent %d: %+v vs %+v", label, r+1, i, a.rounds[r][i], b.rounds[r][i])
			}
		}
	}
}

// TestFixedScheduleMatchesStaticRounds: the static-schedule-equals-static-
// world oracle on the synchronous engine. Wrapping the world in
// FixedWorld{} and the targets in FixedTargets{} must reproduce the static
// run byte for byte — same snapshots, same result.
func TestFixedScheduleMatchesStaticRounds(t *testing.T) {
	target := grid.Point{X: 3, Y: 2}
	static := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 24,
		Rounds:    250,
		Target:    target,
		HasTarget: true,
		World:     Quadrant{},
	}
	dynamic := static
	dynamic.World, dynamic.DynamicWorld = nil, FixedWorld{W: Quadrant{}}
	dynamic.Target, dynamic.HasTarget = grid.Point{}, false
	dynamic.DynamicTargets = FixedTargets{Points: []grid.Point{target}}

	sObs, dObs := &snapshotObserver{}, &snapshotObserver{}
	sRes, err := RunRounds(static, sObs, 41)
	if err != nil {
		t.Fatal(err)
	}
	dRes, err := RunRounds(dynamic, dObs, 41)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.Found != dRes.Found || sRes.FoundRound != dRes.FoundRound || sRes.RoundsRun != dRes.RoundsRun {
		t.Fatalf("results differ: static %+v vs scheduled %+v", sRes, dRes)
	}
	assertSnapshotsEqual(t, "fixed schedule vs static world", sObs, dObs)

	// The batched (observer-free) path must agree with itself across the
	// static/scheduled divide too: schedules cut segments at epoch ends,
	// and a constant schedule has none.
	static.TrackRadius, dynamic.TrackRadius = 16, 16
	sRes2, err := RunRounds(static, nil, 41)
	if err != nil {
		t.Fatal(err)
	}
	dRes2, err := RunRounds(dynamic, nil, 41)
	if err != nil {
		t.Fatal(err)
	}
	if sRes2.Found != dRes2.Found || sRes2.FoundRound != dRes2.FoundRound {
		t.Fatalf("batched results differ: static %+v vs scheduled %+v", sRes2, dRes2)
	}
	visitSetsEqualSim(t, "fixed schedule vs static world (batched visits)", sRes2.Visited, dRes2.Visited)
}

func visitSetsEqualSim(t *testing.T, label string, a, b *grid.VisitSet) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one visit set is nil", label)
		}
		return
	}
	if a.Count() != b.Count() || a.CountInBall() != b.CountInBall() {
		t.Fatalf("%s: counts diverge: (%d,%d) vs (%d,%d)", label, a.Count(), a.CountInBall(), b.Count(), b.CountInBall())
	}
	a.Each(func(p grid.Point) {
		if !b.Contains(p) {
			t.Fatalf("%s: second set missing %v", label, p)
		}
	})
}

// TestFixedScheduleMatchesStaticAsync is the asynchronous-engine oracle:
// the same agent under a constant schedule records exactly the static
// trajectory.
func TestFixedScheduleMatchesStaticAsync(t *testing.T) {
	factory := walkerFactory(t)
	run := func(cfg EnvConfig) []grid.Point {
		cfg.Src = rng.New(77)
		cfg.MoveBudget = 4000
		cfg.RecordPath = true
		env := NewEnv(cfg)
		if err := factory().Run(env); err != nil {
			t.Fatal(err)
		}
		return env.Path()
	}
	target := grid.Point{X: 4, Y: 1}
	static := run(EnvConfig{World: HalfPlane{}, Target: target, HasTarget: true})
	dynamic := run(EnvConfig{
		DynamicWorld:   FixedWorld{W: HalfPlane{}},
		DynamicTargets: FixedTargets{Points: []grid.Point{target}},
	})
	if len(static) != len(dynamic) {
		t.Fatalf("path lengths differ: %d vs %d", len(static), len(dynamic))
	}
	for i := range static {
		if static[i] != dynamic[i] {
			t.Fatalf("trajectories diverge at step %d: %v vs %v", i, static[i], dynamic[i])
		}
	}
}

// TestDynamicWorldSegmentationEquality: the observer-free run batches
// segments between epoch boundaries; an observed run degenerates to
// one-round segments. Both must produce the same result and visit set —
// segmentation is an execution detail, never a semantic one.
func TestDynamicWorldSegmentationEquality(t *testing.T) {
	cfg := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 32,
		Rounds:    240,
		Targets:   []grid.Point{{X: 3, Y: 0}},
		DynamicWorld: PulseWorld{
			A: Obstacles{Blocked: []grid.Rect{grid.NewRect(grid.Point{X: 2, Y: -4}, grid.Point{X: 2, Y: -1})}},
			B: nil, APhase: 7, BPhase: 5,
		},
		TrackRadius: 16,
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		batched, err := RunRounds(cfg, nil, 99)
		if err != nil {
			t.Fatal(err)
		}
		perRound, err := RunRounds(cfg, RoundObserverFunc(func(uint64, []AgentState) {}), 99)
		if err != nil {
			t.Fatal(err)
		}
		if batched.Found != perRound.Found || batched.FoundRound != perRound.FoundRound ||
			batched.Crashed != perRound.Crashed {
			t.Fatalf("workers=%d: batched %+v vs per-round %+v", workers, batched, perRound)
		}
		visitSetsEqualSim(t, "batched vs per-round visits", batched.Visited, perRound.Visited)
	}
}

// TestAdaptiveAdversaryPreservesSurvivors: the adversary draws from its
// own substream, so every agent it does not kill walks exactly as in the
// fault-free run — the headline byte-pinning guarantee of the policy.
func TestAdaptiveAdversaryPreservesSurvivors(t *testing.T) {
	cfg := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 48,
		Rounds:    200,
		Targets:   []grid.Point{{X: 5, Y: 0}},
	}
	base := &snapshotObserver{}
	if _, err := RunRounds(cfg, base, 17); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = FaultModel{Policy: CrashNearest, CrashProb: 1, CrashBudget: 5, CrashEvery: 25}
	adv := &snapshotObserver{}
	res, err := RunRounds(cfg, adv, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed != 5 {
		t.Fatalf("adversary with budget 5 and firing probability 1 crashed %d agents", res.Crashed)
	}
	last := len(adv.rounds) - 1
	for i, a := range adv.rounds[last] {
		if a.Crashed {
			continue
		}
		want := base.rounds[last][i]
		if a.Pos != want.Pos || a.State != want.State {
			t.Fatalf("survivor %d diverged from the fault-free run: %+v vs %+v", i, a, want)
		}
	}
	// Before the first opportunity the runs are identical everywhere.
	for r := 0; r < 24; r++ {
		for i := range adv.rounds[r] {
			if adv.rounds[r][i] != base.rounds[r][i] {
				t.Fatalf("round %d agent %d diverged before the first opportunity", r+1, i)
			}
		}
	}
	// Crashes land exactly at the opportunity rounds (multiples of 25).
	crashedAt := map[int]int{}
	for r := range adv.rounds {
		for i, a := range adv.rounds[r] {
			if a.Crashed {
				if _, seen := crashedAt[i]; !seen {
					crashedAt[i] = r + 1
				}
			}
		}
	}
	for i, r := range crashedAt {
		if r%25 != 0 {
			t.Errorf("agent %d crashed at round %d, not an opportunity round", i, r)
		}
	}
}

// TestAdaptiveAdversaryTargetsNearest: with firing probability 1, each
// opportunity kills the live agent nearest the target at that instant.
func TestAdaptiveAdversaryTargetsNearest(t *testing.T) {
	target := grid.Point{X: 4, Y: 0}
	cfg := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 32,
		Rounds:    60,
		Targets:   []grid.Point{target},
		Faults:    FaultModel{Policy: CrashNearest, CrashProb: 1, CrashBudget: 2, CrashEvery: 30},
	}
	obs := &snapshotObserver{}
	if _, err := RunRounds(cfg, obs, 23); err != nil {
		t.Fatal(err)
	}
	for _, op := range []int{30, 60} {
		snap := obs.rounds[op-1]
		prev := map[int]bool{}
		if op > 30 {
			for i, a := range obs.rounds[op-2] {
				prev[i] = a.Crashed
			}
		}
		victim, best := -1, int64(-1)
		for i, a := range snap {
			if prev[i] {
				continue
			}
			d := target.Sub(a.Pos).Norm()
			if victim < 0 || d < best {
				victim, best = i, d
			}
		}
		if !snap[victim].Crashed {
			t.Fatalf("round %d: nearest live agent %d (dist %d) was not the victim", op, victim, best)
		}
	}
}

// TestAdaptiveCrashCountChernoff: with firing probability p, spacing 1 and
// an unreachable budget, the kill count over R opportunities is
// Binomial(R, p); the observed count must lie in the 10⁻⁶ Chernoff band.
func TestAdaptiveCrashCountChernoff(t *testing.T) {
	const (
		n = 1200
		r = 1000
		p = 0.3
	)
	res, err := RunRounds(RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: n,
		Rounds:    r,
		Targets:   []grid.Point{{X: 1 << 30, Y: 0}}, // unreachable: every agent stays live until killed
		Faults:    FaultModel{Policy: CrashNearest, CrashProb: p, CrashBudget: n, CrashEvery: 1},
	}, nil, 29)
	if err != nil {
		t.Fatal(err)
	}
	mu := float64(r) * p
	delta := chernoffDelta(t, mu, 1e-6)
	if d := math.Abs(float64(res.Crashed) - mu); d > delta*mu {
		t.Fatalf("adversary crashed %d agents, expected %.1f ± %.1f", res.Crashed, mu, delta*mu)
	}
	t.Logf("adversary crashed %d, expected %.1f ± %.1f", res.Crashed, mu, delta*mu)
}

// TestMixedColonyDecomposes: in a heterogeneous colony, agent i must walk
// exactly as agent i of the homogeneous run of its own family — the walk
// stream is derived from the agent id, never from the family.
func TestMixedColonyDecomposes(t *testing.T) {
	zig, err := automata.TransientThenLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	families := []*automata.Machine{automata.RandomWalk(), automata.ZigZag(), zig}
	base := RoundsConfig{
		NumAgents: 30,
		Rounds:    120,
		Targets:   []grid.Point{{X: 2, Y: 2}},
	}
	mixedCfg := base
	mixedCfg.Machines = families
	mixed := &snapshotObserver{}
	if _, err := RunRounds(mixedCfg, mixed, 53); err != nil {
		t.Fatal(err)
	}
	for f, m := range families {
		homoCfg := base
		homoCfg.Machine = m
		homo := &snapshotObserver{}
		if _, err := RunRounds(homoCfg, homo, 53); err != nil {
			t.Fatal(err)
		}
		for r := range mixed.rounds {
			for i := f; i < base.NumAgents; i += len(families) {
				if mixed.rounds[r][i] != homo.rounds[r][i] {
					t.Fatalf("family %d agent %d round %d: mixed %+v vs homogeneous %+v",
						f, i, r+1, mixed.rounds[r][i], homo.rounds[r][i])
				}
			}
		}
	}
}

// TestMixedColonyFastPathEquality: a heterogeneous colony on the open
// plane runs the kernel's call-free loops; routing its moves through
// World.Resolve (resolveOnly) must not change a bit.
func TestMixedColonyFastPathEquality(t *testing.T) {
	run := func(w World) *snapshotObserver {
		obs := &snapshotObserver{}
		_, err := RunRounds(RoundsConfig{
			Machines:  []*automata.Machine{automata.RandomWalk(), automata.ZigZag()},
			NumAgents: 20,
			Rounds:    150,
			Target:    grid.Point{X: 3, Y: 1},
			HasTarget: true,
			World:     w,
		}, obs, 61)
		if err != nil {
			t.Fatal(err)
		}
		return obs
	}
	assertSnapshotsEqual(t, "mixed inline vs Resolve", run(nil), run(resolveOnly{OpenPlane{}}))
}

// TestRunRoundsTrialsDeterministic: the rounds-trials helper is a pure
// function of (config, trials, seed).
func TestRunRoundsTrialsDeterministic(t *testing.T) {
	cfg := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 8,
		Rounds:    400,
		Targets:   []grid.Point{{X: 3, Y: 0}},
	}
	a, err := RunRoundsTrials(cfg, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRoundsTrials(cfg, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FoundFrac != b.FoundFrac || len(a.Rounds) != len(b.Rounds) || a.Crashed != b.Crashed {
		t.Fatalf("identical calls diverged: %+v vs %+v", a, b)
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("trial %d round differs: %v vs %v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}
