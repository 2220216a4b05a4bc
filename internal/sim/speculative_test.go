package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
)

// specCases are StopOnFound configurations covering every loop a run can
// reach in the kernel: the open plane (nil and explicit), an obstacle
// world, 1, 8 (linear) and 12 (indexed) targets, dynamic worlds and
// targets, a heterogeneous colony, an origin target, a target never found
// before the horizon, visit tracking and fault models (which keep
// one-round segments), and the open plane and the obstacle world behind
// resolveOnly (one World.Resolve call per move). target shifts the
// single-target cases' target; a case that sets NumAgents keeps it.
func specCases(t testing.TB, target grid.Point) []RoundsConfig {
	biased, err := automata.BiasedWalk(0.4, 0.1, 0.1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rw := automata.RandomWalk()
	ring := func(k int) []grid.Point {
		pts := make([]grid.Point, k)
		for i := range pts {
			pts[i] = grid.SpherePoint(9, int64(i)*grid.SphereSize(9)/int64(k))
		}
		return pts
	}
	wall := NewObstacles(
		grid.NewRect(grid.Point{X: 2, Y: -6}, grid.Point{X: 2, Y: -1}),
		grid.NewRect(grid.Point{X: 2, Y: 1}, grid.Point{X: 2, Y: 6}),
	)
	if !wall.Contains(target) || target == grid.Origin {
		target = grid.Point{X: 5, Y: -2}
	}
	return []RoundsConfig{
		{Machine: rw, Target: target, HasTarget: true},
		{Machine: rw, World: OpenPlane{}, Target: target, HasTarget: true},
		{Machine: biased, World: wall, Target: target, HasTarget: true},
		{Machine: rw, Targets: []grid.Point{target}},
		{Machine: rw, Targets: ring(8)},
		{Machine: rw, World: wall, Targets: ring(12)},
		{Machine: biased, Target: target, HasTarget: true,
			DynamicWorld: PulseWorld{A: wall, B: nil, APhase: 37, BPhase: 11}},
		{Machine: rw, DynamicTargets: DriftTargets{Base: []grid.Point{target}, V: grid.Point{X: 1}, Every: 50}},
		{Machine: rw, DynamicTargets: PulseTargets{On: ring(12), OnPhase: 20, OffPhase: 30}},
		{Machines: []*automata.Machine{rw, automata.ZigZag(), biased}, Target: target, HasTarget: true},
		{Machines: []*automata.Machine{rw, biased}, World: wall, Target: target, HasTarget: true},
		{Machine: rw, Target: grid.Origin, HasTarget: true},
		{Machine: automata.ZigZag(), Target: grid.Point{X: -500, Y: 500}, HasTarget: true},
		{Machine: rw, Target: target, HasTarget: true, TrackRadius: 16},
		// A large swarm and a far target: crashes land in the rounds a
		// speculative segment would step past the find.
		{Machine: rw, NumAgents: 48, Target: grid.Point{X: 10, Y: 3}, HasTarget: true,
			Faults: FaultModel{CrashProb: 0.005, MaxStartDelay: 10}},
		{Machine: rw, Targets: ring(3), Faults: FaultModel{Policy: CrashNearest, CrashProb: 0.5, CrashBudget: 3, CrashEvery: 7}},
		{Machine: rw, World: resolveOnly{OpenPlane{}}, Target: target, HasTarget: true},
		{Machine: biased, World: resolveOnly{wall}, Target: target, HasTarget: true},
	}
}

// checkSpecMatchesPerRound runs cfg speculatively (no observer) and in
// one-round segments (a no-op observer forces them) and compares every
// output a StopOnFound run has.
func checkSpecMatchesPerRound(t *testing.T, label string, cfg RoundsConfig, seed uint64) {
	t.Helper()
	cfg.StopOnFound = true
	spec, err := RunRounds(cfg, nil, seed)
	if err != nil {
		t.Fatalf("%s: speculative: %v", label, err)
	}
	noop := RoundObserverFunc(func(uint64, []AgentState) {})
	ref, err := RunRounds(cfg, noop, seed)
	if err != nil {
		t.Fatalf("%s: per-round: %v", label, err)
	}
	if spec.Found != ref.Found || spec.FoundRound != ref.FoundRound ||
		spec.RoundsRun != ref.RoundsRun || spec.Crashed != ref.Crashed {
		t.Fatalf("%s seed %d: speculative %+v, per-round %+v", label, seed, *spec, *ref)
	}
	if cfg.TrackRadius > 0 {
		visitSetsEqualSim(t, label, spec.Visited, ref.Visited)
	}
}

// TestStopOnFoundSpeculativeMatchesPerRound holds speculative StopOnFound
// segments to one-round segments on Found, FoundRound, RoundsRun and
// Crashed, across the case table and worker counts 1–4.
func TestStopOnFoundSpeculativeMatchesPerRound(t *testing.T) {
	for ci, base := range specCases(t, grid.Point{X: 4, Y: -3}) {
		for workers := 1; workers <= 4; workers++ {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := base
				cfg.Rounds, cfg.Workers = 3000, workers
				if cfg.NumAgents == 0 {
					cfg.NumAgents = 7
				}
				checkSpecMatchesPerRound(t, fmt.Sprintf("case %d workers %d", ci, workers), cfg, seed)
			}
		}
	}
}

// TestStopOnFoundSpeculativeOutcomes pins the outcomes the differential
// test compares against known values, so both sides cannot drift together.
func TestStopOnFoundSpeculativeOutcomes(t *testing.T) {
	for _, tc := range []struct {
		target              grid.Point
		rounds              uint64
		found               bool
		foundRound, roundsN uint64
	}{
		{grid.Point{X: 2, Y: 2}, 1000, true, 4, 4},       // zigzag's diagonal
		{grid.Point{X: 60, Y: 60}, 1000, true, 120, 120}, // far along it
		{grid.Origin, 1000, true, 0, 1},                  // origin: found before round 1
		{grid.Point{X: 3, Y: 0}, 1000, false, 0, 1000},   // off the diagonal: never
	} {
		res, err := RunRounds(RoundsConfig{
			Machine: automata.ZigZag(), NumAgents: 3, Rounds: tc.rounds,
			Target: tc.target, HasTarget: true, StopOnFound: true,
		}, nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != tc.found || res.FoundRound != tc.foundRound || res.RoundsRun != tc.roundsN {
			t.Errorf("target %v: %+v, want found=%v FoundRound=%d RoundsRun=%d",
				tc.target, *res, tc.found, tc.foundRound, tc.roundsN)
		}
	}
}

// TestSpecSegmentBounds checks the segment schedule: segments tile the
// horizon, a segment starting at round r covers max(1, r/8) rounds, so a
// find anywhere in it overshoots by less than 12.5% of the find round,
// and nothing overflows near the top of the round range.
func TestSpecSegmentBounds(t *testing.T) {
	const horizon = 100000
	segments := 0
	for r := uint64(1); r <= horizon; {
		end := specSegment(r, horizon)
		if end < r || end > horizon {
			t.Fatalf("segment [%d, %d] outside [%d, %d]", r, end, r, uint64(horizon))
		}
		if want := max(1, r/specGrowth); end-r+1 != want && end != horizon {
			t.Fatalf("segment at %d covers %d rounds, want %d", r, end-r+1, want)
		}
		// Worst case: found in round r, stepped through end.
		if float64(end-r) >= float64(r)/specGrowth && end-r > 0 {
			t.Fatalf("segment [%d, %d] overshoots a find at %d by ≥ 1/%d", r, end, r, specGrowth)
		}
		segments++
		r = end + 1
	}
	if segments > 200 {
		t.Errorf("%d segments to reach round %d, want O(log) (≤ 200)", segments, horizon)
	}
	if got := specSegment(math.MaxUint64-3, math.MaxUint64); got != math.MaxUint64 {
		t.Errorf("specSegment near MaxUint64 = %d, want the horizon", got)
	}
	if got := specSegment(1<<40, 1<<40+5); got != 1<<40+5 {
		t.Errorf("specSegment capped by horizon = %d", got)
	}
}

// FuzzStopOnFoundMatchesPerRound is the fuzzed form of the differential
// test: any case of the table, any target shift, swarm size, worker count
// and seed.
func FuzzStopOnFoundMatchesPerRound(f *testing.F) {
	f.Add(uint64(1), uint8(0), int8(3), int8(1), uint8(4), uint8(1))
	f.Add(uint64(9), uint8(5), int8(-4), int8(7), uint8(9), uint8(3))
	f.Add(uint64(4), uint8(13), int8(0), int8(-2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, ci uint8, tx, ty int8, agents, workers uint8) {
		cases := specCases(t, grid.Point{X: int64(tx) / 8, Y: int64(ty) / 8})
		cfg := cases[int(ci)%len(cases)]
		if cfg.NumAgents == 0 {
			cfg.NumAgents = 1 + int(agents%12)
		}
		cfg.Workers = 1 + int(workers%4)
		cfg.Rounds = 1500
		checkSpecMatchesPerRound(t, fmt.Sprintf("case %d", int(ci)%len(cases)), cfg, seed)
	})
}
