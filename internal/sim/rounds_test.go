package sim

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
)

func TestRunRoundsValidation(t *testing.T) {
	m := automata.RandomWalk()
	if _, err := RunRounds(RoundsConfig{NumAgents: 1, Rounds: 1}, nil, 1); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := RunRounds(RoundsConfig{Machine: m, NumAgents: 0, Rounds: 1}, nil, 1); err == nil {
		t.Error("zero agents should fail")
	}
	if _, err := RunRounds(RoundsConfig{Machine: m, NumAgents: 1, Rounds: 0}, nil, 1); err == nil {
		t.Error("zero rounds should fail")
	}
}

func TestRunRoundsDeterministicZigZag(t *testing.T) {
	// ZigZag is deterministic: after round r every agent is at the same
	// position, and the target on the diagonal is found at a predictable
	// round.
	res, err := RunRounds(RoundsConfig{
		Machine:     automata.ZigZag(),
		NumAgents:   3,
		Rounds:      100,
		Target:      grid.Point{X: 2, Y: 2},
		HasTarget:   true,
		StopOnFound: true,
	}, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("zigzag missed its own diagonal")
	}
	// Moves: R(1,0) U(1,1) R(2,1) U(2,2): round 4.
	if res.FoundRound != 4 {
		t.Errorf("FoundRound = %d, want 4", res.FoundRound)
	}
	if res.RoundsRun != 4 {
		t.Errorf("RoundsRun = %d, want 4 (StopOnFound)", res.RoundsRun)
	}
}

func TestRunRoundsObserverSeesLockstep(t *testing.T) {
	var rounds []uint64
	var lastAgents int
	obs := RoundObserverFunc(func(round uint64, agents []AgentState) {
		rounds = append(rounds, round)
		lastAgents = len(agents)
		// ZigZag agents never disagree: lockstep must hold exactly.
		for i := 1; i < len(agents); i++ {
			if agents[i].Pos != agents[0].Pos {
				t.Errorf("round %d: agents at %v and %v, want lockstep",
					round, agents[0].Pos, agents[i].Pos)
			}
		}
	})
	_, err := RunRounds(RoundsConfig{
		Machine:   automata.ZigZag(),
		NumAgents: 5,
		Rounds:    10,
		Workers:   2,
	}, obs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 10 || rounds[0] != 1 || rounds[9] != 10 {
		t.Errorf("observer saw rounds %v", rounds)
	}
	if lastAgents != 5 {
		t.Errorf("observer saw %d agents, want 5", lastAgents)
	}
}

func TestRunRoundsMatchesAsyncEngine(t *testing.T) {
	// The synchronous and asynchronous engines must agree on whether a
	// close target is findable by the random walk within the same step
	// budget (they use different substream layouts, so compare outcomes,
	// not exact rounds).
	const steps = 20000
	syncRes, err := RunRounds(RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 8,
		Rounds:    steps,
		Target:    grid.Point{X: 2, Y: 1},
		HasTarget: true,
	}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !syncRes.Found {
		t.Error("synchronous random walk should find a distance-2 target in 20k rounds")
	}
}

func TestRunRoundsOriginTarget(t *testing.T) {
	res, err := RunRounds(RoundsConfig{
		Machine:   automata.RandomWalk(),
		NumAgents: 1,
		Rounds:    5,
		Target:    grid.Origin,
		HasTarget: true,
	}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundRound != 0 {
		t.Errorf("origin target: found=%v round=%d, want found at round 0", res.Found, res.FoundRound)
	}
}

func TestRunRoundsTracksCoverage(t *testing.T) {
	res, err := RunRounds(RoundsConfig{
		Machine:     automata.RandomWalk(),
		NumAgents:   4,
		Rounds:      500,
		TrackRadius: 20,
	}, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited == nil || res.Visited.CountInBall() < 20 {
		t.Errorf("coverage tracking broken: %+v", res.Visited)
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	checkpoints := []uint64{8, 64, 256, 1024}
	counts, err := CoverageCurve(automata.RandomWalk(), 4, 40, checkpoints, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(checkpoints) {
		t.Fatalf("counts = %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("coverage decreased: %v", counts)
		}
	}
	if counts[len(counts)-1] <= counts[0] {
		t.Errorf("coverage did not grow: %v", counts)
	}
}

func TestCoverageCurveDriftMachineLinearThenFlat(t *testing.T) {
	// A drift machine covers ≈ t cells until it exits the ball, then stops
	// gaining: the last two checkpoints (far past exit) must be equal.
	m, err := automata.DriftLineMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 16
	counts, err := CoverageCurve(m, 1, radius, []uint64{8, 16, 1024, 2048}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if counts[3] != counts[2] {
		t.Errorf("drift machine kept covering after leaving the ball: %v", counts)
	}
	if counts[1] <= counts[0] {
		t.Errorf("drift machine not covering linearly early: %v", counts)
	}
}

func TestCoverageCurveValidation(t *testing.T) {
	m := automata.RandomWalk()
	if _, err := CoverageCurve(m, 1, 8, nil, 1); err == nil {
		t.Error("no checkpoints should fail")
	}
	if _, err := CoverageCurve(m, 1, 8, []uint64{5, 5}, 1); err == nil {
		t.Error("non-increasing checkpoints should fail")
	}
}

// TestSegmentBatchingMatchesPerRound pins the agent-major segment kernel:
// a batched run (no observer) must be bit-identical to the same run forced
// into one-round segments by a no-op observer, across worker counts and
// the kernel's loops.
func TestSegmentBatchingMatchesPerRound(t *testing.T) {
	noop := RoundObserverFunc(func(uint64, []AgentState) {})
	cfgs := []RoundsConfig{
		{Machine: automata.RandomWalk(), NumAgents: 5, Rounds: 700,
			Target: grid.Point{X: 3, Y: 1}, HasTarget: true, TrackRadius: 24},
		{Machine: automata.RandomWalk(), NumAgents: 4, Rounds: 500,
			World: OpenPlane{}, Targets: []grid.Point{{X: 2, Y: 2}, {X: -1, Y: 3}}, TrackRadius: 16},
		{Machine: automata.RandomWalk(), NumAgents: 6, Rounds: 400,
			Faults: FaultModel{CrashProb: 0.002, MaxStartDelay: 20}, TrackRadius: 16},
	}
	for ci, base := range cfgs {
		for _, workers := range []int{1, 3} {
			cfg := base
			cfg.Workers = workers
			batched, err := RunRounds(cfg, nil, 21)
			if err != nil {
				t.Fatalf("cfg %d workers %d: batched: %v", ci, workers, err)
			}
			perRound, err := RunRounds(cfg, noop, 21)
			if err != nil {
				t.Fatalf("cfg %d workers %d: per-round: %v", ci, workers, err)
			}
			if batched.Found != perRound.Found || batched.FoundRound != perRound.FoundRound ||
				batched.RoundsRun != perRound.RoundsRun || batched.Crashed != perRound.Crashed {
				t.Fatalf("cfg %d workers %d: results diverge: %+v vs %+v",
					ci, workers, batched, perRound)
			}
			if batched.Visited.Count() != perRound.Visited.Count() ||
				batched.Visited.CountInBall() != perRound.Visited.CountInBall() {
				t.Fatalf("cfg %d workers %d: visit sets diverge: (%d,%d) vs (%d,%d)",
					ci, workers, batched.Visited.Count(), batched.Visited.CountInBall(),
					perRound.Visited.Count(), perRound.Visited.CountInBall())
			}
			batched.Visited.Each(func(p grid.Point) {
				if !perRound.Visited.Contains(p) {
					t.Fatalf("cfg %d workers %d: per-round run missing %v", ci, workers, p)
				}
			})
		}
	}
}

// TestSegmentBatchingFoundRoundExact places a deterministic target so the
// batched kernel must report the same first-found round a per-round run
// would, even though the whole horizon executes as one segment.
func TestSegmentBatchingFoundRoundExact(t *testing.T) {
	res, err := RunRounds(RoundsConfig{
		Machine:   automata.ZigZag(),
		NumAgents: 2,
		Rounds:    50, // no StopOnFound: the run must batch the full horizon
		Target:    grid.Point{X: 2, Y: 2},
		HasTarget: true,
	}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.FoundRound != 4 || res.RoundsRun != 50 {
		t.Fatalf("batched zigzag: %+v, want FoundRound=4 RoundsRun=50", res)
	}
}

// allocatedBytes returns how many heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEnginesRejectTooManyAgents: both engines refuse a swarm above
// MaxAgents with ErrTooManyAgents, and do so before allocating its
// per-agent state (a few KB at most, against hundreds of MB for the
// smallest rejected swarm).
func TestEnginesRejectTooManyAgents(t *testing.T) {
	factory := walkerFactory(t)
	m := automata.RandomWalk()
	m.Compiled()
	// The absurd size comes first: an engine that skipped the check would
	// panic on it at once instead of allocating for the second.
	for _, n := range []int{1 << 40, MaxAgents + 1} {
		var errAsync, errRounds error
		if b := allocatedBytes(func() {
			_, errAsync = Run(Config{NumAgents: n, MoveBudget: 1}, factory, rng.New(1))
		}); b > 64<<10 {
			t.Errorf("Run(n=%d) allocated %d bytes before rejecting", n, b)
		}
		if b := allocatedBytes(func() {
			_, errRounds = RunRounds(RoundsConfig{Machine: m, NumAgents: n, Rounds: 1}, nil, 1)
		}); b > 64<<10 {
			t.Errorf("RunRounds(n=%d) allocated %d bytes before rejecting", n, b)
		}
		if !errors.Is(errAsync, ErrTooManyAgents) || !errors.Is(errRounds, ErrTooManyAgents) {
			t.Errorf("n=%d: Run error %v, RunRounds error %v; want ErrTooManyAgents", n, errAsync, errRounds)
		}
	}
}
