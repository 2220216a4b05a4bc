package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/stats"
)

// This file is the statistical conformance suite of the scenario engine.
// Its contract is that the engines' inline forms of a world and a target
// set — the open plane's packed grid action, the frozen obstacle table,
// the single-target compare — are indistinguishable from the World and
// TargetSet methods they stand for: bit-identical trajectories under the
// same seed, and the same hit-time distribution across seeds. The
// reference side wraps its world in resolveOnly, which no engine can
// type-switch on. Restricted worlds must also honor their invariants
// (sector walls hold, torus coordinates stay in range) while the fault
// model touches only the agents it kills.

// resolveOnly hides a world's concrete type from the engines: its methods
// are the wrapped world's, but no kernel recognises it, so every move goes
// through World.Resolve one call at a time.
type resolveOnly struct{ World }

func walkerFactory(t *testing.T) Factory {
	t.Helper()
	f, err := MachineFactory(automata.RandomWalk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEnvOpenPlaneTrajectoryEquality: the same agent on the open plane
// (nil, or an explicit OpenPlane{}) and on the open plane behind
// resolveOnly must record exactly the same trajectory from the same seed.
func TestEnvOpenPlaneTrajectoryEquality(t *testing.T) {
	factory := walkerFactory(t)
	run := func(w World) []grid.Point {
		src := rng.New(99)
		env := NewEnv(EnvConfig{
			World:      w,
			MoveBudget: 5000,
			Src:        src,
			RecordPath: true,
		})
		if err := factory().Run(env); err != nil {
			t.Fatal(err)
		}
		return env.Path()
	}
	ref := run(resolveOnly{OpenPlane{}})
	for _, w := range []World{nil, OpenPlane{}} {
		got := run(w)
		if len(got) != len(ref) {
			t.Fatalf("%v: path lengths differ: %d vs %d", w, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%v: trajectories diverge at step %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// snapshotObserver copies every round's agent states (the engine reuses the
// slice between rounds).
type snapshotObserver struct {
	rounds [][]AgentState
}

func (o *snapshotObserver) Observe(round uint64, agents []AgentState) {
	o.rounds = append(o.rounds, append([]AgentState(nil), agents...))
}

// TestRunRoundsOpenPlaneGeneralPathEquality: the synchronous engine must
// produce identical round-by-round swarm snapshots whether it steps a
// world through its inline form or through World.Resolve (resolveOnly),
// and whether it tests one target by compare or through TargetSet.Hit (a
// duplicated target makes a two-point set with the same hits). It covers
// the open plane (nil and explicit) and a frozen obstacle table.
func TestRunRoundsOpenPlaneGeneralPathEquality(t *testing.T) {
	target := grid.Point{X: 3, Y: 2}
	wall := NewObstacles(grid.NewRect(grid.Point{X: 2, Y: -3}, grid.Point{X: 2, Y: 1}))
	run := func(w World, targets []grid.Point) (*RoundsResult, *snapshotObserver) {
		obs := &snapshotObserver{}
		res, err := RunRounds(RoundsConfig{
			Machine:   automata.RandomWalk(),
			NumAgents: 16,
			Rounds:    300,
			Targets:   targets,
			World:     w,
		}, obs, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res, obs
	}
	one, both := []grid.Point{target}, []grid.Point{target, target}
	for _, tc := range []struct {
		name   string
		inline World
		ref    World
	}{
		{"nil open plane", nil, resolveOnly{OpenPlane{}}},
		{"explicit open plane", OpenPlane{}, resolveOnly{OpenPlane{}}},
		{"obstacle table", wall, resolveOnly{wall}},
	} {
		gotRes, got := run(tc.inline, one)
		for _, targets := range [][]grid.Point{one, both} {
			refRes, ref := run(tc.ref, targets)
			if gotRes.Found != refRes.Found || gotRes.FoundRound != refRes.FoundRound ||
				gotRes.RoundsRun != refRes.RoundsRun {
				t.Fatalf("%s, %d targets: results differ: inline %+v vs Resolve %+v",
					tc.name, len(targets), gotRes, refRes)
			}
			assertSnapshotsEqual(t, fmt.Sprintf("%s, %d targets", tc.name, len(targets)), got, ref)
		}
		if !gotRes.Found {
			t.Errorf("%s: no agent found %v in 300 rounds; the hit compare went untested", tc.name, target)
		}
	}
}

// hitTimes collects M_moves over independent trials of a single
// random-walk agent chasing a close target.
func hitTimes(t *testing.T, w World, trials int, seed uint64) []float64 {
	t.Helper()
	st, err := RunTrials(Config{
		NumAgents:  1,
		Target:     grid.Point{X: 3, Y: 0},
		HasTarget:  true,
		World:      w,
		MoveBudget: 4096,
	}, walkerFactory(t), trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st.Moves
}

// TestOpenPlaneHitTimeChiSquare: across disjoint seed sets, the hit-time
// distribution of the open plane behind resolveOnly (one World.Resolve
// call per move) must match the open plane's. The open plane provides the
// reference histogram (quantile bins), the wrapped world the observed
// counts; the chi-square statistic must stay below the α = 0.001 critical
// value — a genuine distributional difference between the two code paths
// would blow far past it.
func TestOpenPlaneHitTimeChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional conformance needs thousands of trials")
	}
	// A budget-capped random walk finds the target in roughly half the
	// trials; the comparison conditions on the successful ones (the same
	// sub-distribution on both paths) and separately checks the found
	// fractions agree within a Chernoff band.
	ref := hitTimes(t, nil, 2000, 1000)
	obs := hitTimes(t, resolveOnly{OpenPlane{}}, 500, 777000)
	if len(ref) < 600 || len(obs) < 150 {
		t.Fatalf("found fractions too low for a distribution test: ref %d/2000, obs %d/500", len(ref), len(obs))
	}
	muFound := float64(len(ref)) / 2000 * 500
	deltaFound := chernoffDelta(t, muFound, 1e-6)
	if d := math.Abs(float64(len(obs)) - muFound); d > deltaFound*muFound {
		t.Fatalf("found fractions differ between code paths: %d/500 observed, expected %.1f ± %.1f",
			len(obs), muFound, deltaFound*muFound)
	}
	sort.Float64s(ref)

	// Quantile bin edges from the reference; duplicates collapse (hit
	// times are discrete), so bins carry their true reference mass.
	const bins = 10
	var edges []float64
	for i := 1; i < bins; i++ {
		e := ref[i*len(ref)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	binOf := func(x float64) int {
		b := sort.SearchFloat64s(edges, x)
		if b < len(edges) && x == edges[b] {
			b++ // edges are inclusive upper bounds
		}
		return b
	}
	refCounts := make([]int, len(edges)+1)
	for _, x := range ref {
		refCounts[binOf(x)]++
	}
	observed := make([]int, len(edges)+1)
	for _, x := range obs {
		observed[binOf(x)]++
	}
	expected := make([]float64, len(edges)+1)
	for i, c := range refCounts {
		expected[i] = float64(c) / float64(len(ref)) * float64(len(obs))
	}
	chi2, err := stats.ChiSquareUniform(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	// χ² critical values at α = 0.001 for df = bins−1 (df 5..9).
	critical := map[int]float64{5: 20.52, 6: 22.46, 7: 24.32, 8: 26.12, 9: 27.88}
	crit, ok := critical[len(observed)-1]
	if !ok {
		t.Fatalf("no critical value tabulated for df = %d", len(observed)-1)
	}
	if chi2 > crit {
		t.Fatalf("hit-time distributions differ between code paths: χ² = %.2f > %.2f (df = %d)",
			chi2, crit, len(observed)-1)
	}
	t.Logf("χ² = %.2f (critical %.2f at α = 0.001, df = %d)", chi2, crit, len(observed)-1)
}

// chernoffDelta returns the smallest relative deviation δ whose two-sided
// Chernoff bound at mean mu is below the given failure probability: any
// larger observed deviation is overwhelming evidence of a real defect.
func chernoffDelta(t *testing.T, mu, pFail float64) float64 {
	t.Helper()
	for delta := 0.01; delta <= 1.0; delta += 0.01 {
		bound, err := stats.ChernoffTwoSided(mu, delta)
		if err != nil {
			t.Fatal(err)
		}
		if bound <= pFail {
			return delta
		}
	}
	t.Fatalf("no δ ≤ 1 achieves Chernoff bound %v at μ = %v (too few samples)", pFail, mu)
	return 0
}

// TestRunRoundsCrashCountChernoff: with per-round crash probability p over
// R rounds, each of n agents crashes with probability q = 1 − (1−p)^R
// independently. The observed crash count must lie within the two-sided
// Chernoff band around nq whose tail mass is below 10⁻⁶.
func TestRunRoundsCrashCountChernoff(t *testing.T) {
	const (
		n = 2000
		r = 100
		p = 0.005
	)
	res, err := RunRounds(RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: n,
		Rounds:    r,
		Faults:    FaultModel{CrashProb: p},
	}, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	q := 1 - math.Pow(1-p, r)
	mu := n * q
	delta := chernoffDelta(t, mu, 1e-6)
	if d := math.Abs(float64(res.Crashed) - mu); d > delta*mu {
		t.Fatalf("crashed %d agents, expected %.1f ± %.1f (Chernoff δ = %.2f)",
			res.Crashed, mu, delta*mu, delta)
	}
	t.Logf("crashed %d, expected %.1f ± %.1f", res.Crashed, mu, delta*mu)
}

// TestRunCrashCountChernoff is the async-engine analogue: with no target
// and a move budget of B, every surviving agent attempts exactly B moves,
// so the per-agent crash probability is 1 − (1−p)^B.
func TestRunCrashCountChernoff(t *testing.T) {
	const (
		n = 2000
		b = 100
		p = 0.005
	)
	res, err := Run(Config{
		NumAgents:  n,
		MoveBudget: b,
		Faults:     FaultModel{CrashProb: p},
	}, walkerFactory(t), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, a := range res.Agents {
		if a.Crashed {
			crashed++
		}
	}
	q := 1 - math.Pow(1-p, b)
	mu := n * q
	delta := chernoffDelta(t, mu, 1e-6)
	if d := math.Abs(float64(crashed) - mu); d > delta*mu {
		t.Fatalf("crashed %d agents, expected %.1f ± %.1f (Chernoff δ = %.2f)",
			crashed, mu, delta*mu, delta)
	}
}

// TestCrashFaultsPreserveSurvivorTrajectories: fault randomness lives on a
// dedicated substream, so agents the fault model does not kill walk
// exactly as they would in a fault-free run, and crashed agents freeze
// where they died.
func TestCrashFaultsPreserveSurvivorTrajectories(t *testing.T) {
	cfg := RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 64,
		Rounds:    150,
	}
	base := &snapshotObserver{}
	if _, err := RunRounds(cfg, base, 5); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = FaultModel{CrashProb: 0.01}
	faulty := &snapshotObserver{}
	res, err := RunRounds(cfg, faulty, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed == 0 {
		t.Fatal("no agent crashed; the comparison is vacuous (raise CrashProb)")
	}
	last := len(faulty.rounds) - 1
	survivors := 0
	for i, a := range faulty.rounds[last] {
		if a.Crashed {
			continue
		}
		survivors++
		want := base.rounds[last][i]
		if a.Pos != want.Pos || a.State != want.State {
			t.Fatalf("surviving agent %d diverged from the fault-free run: %+v vs %+v", i, a, want)
		}
	}
	if survivors == 0 {
		t.Fatal("every agent crashed; lower CrashProb")
	}
	// A crashed agent's position never changes after the crash round.
	for i := range faulty.rounds[last] {
		frozenAt := -1
		for r := range faulty.rounds {
			a := faulty.rounds[r][i]
			if frozenAt >= 0 && a.Pos != faulty.rounds[frozenAt][i].Pos {
				t.Fatalf("agent %d moved after crashing in round %d", i, frozenAt+1)
			}
			if a.Crashed && frozenAt < 0 {
				frozenAt = r
			}
		}
	}
}

// TestEnvStartDelayPreservesTrajectory: a delayed start charges idle steps
// but must not perturb the walk itself.
func TestEnvStartDelayPreservesTrajectory(t *testing.T) {
	factory := walkerFactory(t)
	run := func(delay uint64) ([]grid.Point, uint64) {
		src := rng.New(42)
		env := NewEnv(EnvConfig{
			MoveBudget:      1000,
			Src:             src,
			StartDelaySteps: delay,
			RecordPath:      true,
		})
		if err := factory().Run(env); err != nil {
			t.Fatal(err)
		}
		return env.Path(), env.Steps()
	}
	path0, steps0 := run(0)
	path17, steps17 := run(17)
	if steps17 != steps0+17 {
		t.Errorf("delay not charged to steps: %d vs %d+17", steps17, steps0)
	}
	if len(path0) != len(path17) {
		t.Fatalf("delay changed the trajectory length: %d vs %d", len(path0), len(path17))
	}
	for i := range path0 {
		if path0[i] != path17[i] {
			t.Fatalf("delay perturbed the walk at step %d: %v vs %v", i, path0[i], path17[i])
		}
	}
}

// TestTorusInvariant: every position either engine produces on an L-torus
// lies in [0, L)².
func TestTorusInvariant(t *testing.T) {
	const l = 5
	w := Torus{L: l}
	inRange := func(p grid.Point) bool {
		return p.X >= 0 && p.X < l && p.Y >= 0 && p.Y < l
	}

	obs := RoundObserverFunc(func(round uint64, agents []AgentState) {
		for i, a := range agents {
			if !inRange(a.Pos) {
				t.Fatalf("round %d: agent %d at %v escaped the %d-torus", round, i, a.Pos, l)
			}
		}
	})
	if _, err := RunRounds(RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 8,
		Rounds:    500,
		World:     w,
	}, obs, 3); err != nil {
		t.Fatal(err)
	}

	src := rng.New(8)
	env := NewEnv(EnvConfig{World: w, MoveBudget: 2000, Src: src, RecordPath: true})
	if err := walkerFactory(t)().Run(env); err != nil {
		t.Fatal(err)
	}
	for i, p := range env.Path() {
		if !inRange(p) {
			t.Fatalf("step %d: position %v escaped the %d-torus", i, p, l)
		}
	}
}

// TestSectorInvariant: agents on sector worlds never cross the walls, and
// a blocked move still charges the move budget (a bumped wall is an
// action, so budget exhaustion remains guaranteed).
func TestSectorInvariant(t *testing.T) {
	worlds := []struct {
		w  World
		ok func(grid.Point) bool
	}{
		{HalfPlane{}, func(p grid.Point) bool { return p.Y >= 0 }},
		{Quadrant{}, func(p grid.Point) bool { return p.X >= 0 && p.Y >= 0 }},
	}
	for _, tc := range worlds {
		obs := RoundObserverFunc(func(round uint64, agents []AgentState) {
			for i, a := range agents {
				if !tc.ok(a.Pos) {
					t.Fatalf("%s: round %d: agent %d left the sector at %v", tc.w.Name(), round, i, a.Pos)
				}
			}
		})
		if _, err := RunRounds(RoundsConfig{
			Machine:   automata.RandomWalk(),
			NumAgents: 8,
			Rounds:    500,
			World:     tc.w,
		}, obs, 17); err != nil {
			t.Fatal(err)
		}

		src := rng.New(23)
		env := NewEnv(EnvConfig{World: tc.w, MoveBudget: 2000, Src: src, RecordPath: true})
		if err := walkerFactory(t)().Run(env); err != nil {
			t.Fatal(err)
		}
		for i, p := range env.Path() {
			if !tc.ok(p) {
				t.Fatalf("%s: step %d at %v left the sector", tc.w.Name(), i, p)
			}
		}
	}

	// Blocked moves keep the agent in place but consume budget.
	env := NewEnv(EnvConfig{World: Quadrant{}, MoveBudget: 3, Src: rng.New(1)})
	for i := 0; i < 3; i++ {
		if err := env.Move(grid.Left); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if env.Pos() != grid.Origin {
			t.Fatalf("blocked move relocated the agent to %v", env.Pos())
		}
	}
	if !env.Done() {
		t.Error("three blocked moves must exhaust a budget of 3")
	}
	if err := env.Move(grid.Left); err != ErrBudget {
		t.Errorf("move after exhaustion = %v, want ErrBudget", err)
	}
}

// TestMultiTargetConformance: a TargetSet behaves identically whether the
// target arrives via the legacy single-target fields or the Targets list,
// and the engines agree on multi-target discovery.
func TestMultiTargetConformance(t *testing.T) {
	factory := walkerFactory(t)
	target := grid.Point{X: 2, Y: 1}
	legacy, err := RunTrials(Config{
		NumAgents: 1, Target: target, HasTarget: true, MoveBudget: 4096,
	}, factory, 50, 31)
	if err != nil {
		t.Fatal(err)
	}
	viaList, err := RunTrials(Config{
		NumAgents: 1, Targets: []grid.Point{target}, MoveBudget: 4096,
	}, factory, 50, 31)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.FoundFrac != viaList.FoundFrac || len(legacy.Moves) != len(viaList.Moves) {
		t.Fatalf("single-target field and Targets list disagree: %+v vs %+v", legacy, viaList)
	}
	for i := range legacy.Moves {
		if legacy.Moves[i] != viaList.Moves[i] {
			t.Fatalf("trial %d: M_moves %v vs %v", i, legacy.Moves[i], viaList.Moves[i])
		}
	}

	// More targets can only speed discovery up, never slow it down.
	ring := []grid.Point{{X: 2, Y: 1}, {X: -2, Y: 1}, {X: 1, Y: -2}}
	multi, err := RunTrials(Config{
		NumAgents: 1, Targets: ring, MoveBudget: 4096,
	}, factory, 50, 31)
	if err != nil {
		t.Fatal(err)
	}
	if multi.FoundFrac < legacy.FoundFrac {
		t.Errorf("adding targets lowered the found fraction: %v vs %v", multi.FoundFrac, legacy.FoundFrac)
	}
}
