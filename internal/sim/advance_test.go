package sim

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
)

func TestStraightOnTheOpenPlane(t *testing.T) {
	tests := []struct {
		name string
		cfg  EnvConfig
		pre  int // moves Up before asking
		d    grid.Direction
		want uint64
	}{
		{name: "nothing bounds the run", d: grid.Up, want: math.MaxUint64},
		{name: "explicit open plane", cfg: EnvConfig{World: OpenPlane{}}, d: grid.Up, want: math.MaxUint64},
		{name: "remaining budget", cfg: EnvConfig{MoveBudget: 10}, pre: 3, d: grid.Up, want: 7},
		{name: "target ahead", cfg: EnvConfig{Target: grid.Point{X: 0, Y: 9}, HasTarget: true}, pre: 2, d: grid.Up, want: 7},
		{name: "target behind", cfg: EnvConfig{Target: grid.Point{X: 0, Y: -9}, HasTarget: true}, d: grid.Up, want: math.MaxUint64},
		{name: "target off the ray", cfg: EnvConfig{Target: grid.Point{X: 1, Y: 9}, HasTarget: true}, d: grid.Up, want: math.MaxUint64},
		{name: "nearest of several", cfg: EnvConfig{Targets: []grid.Point{{X: 8, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 2}}}, d: grid.Right, want: 5},
		{name: "target nearer than the budget", cfg: EnvConfig{Targets: []grid.Point{{X: -4, Y: 0}}, MoveBudget: 50}, d: grid.Left, want: 4},
		{name: "budget nearer than the target", cfg: EnvConfig{Targets: []grid.Point{{X: 0, Y: -40}}, MoveBudget: 5}, d: grid.Down, want: 5},
		{name: "budget exhausted", cfg: EnvConfig{MoveBudget: 2}, pre: 2, d: grid.Up, want: 1},
		{name: "found", cfg: EnvConfig{Target: grid.Origin, HasTarget: true}, d: grid.Up, want: 1},
	}
	for _, tt := range tests {
		tt.cfg.Src = rng.New(1)
		env := NewEnv(tt.cfg)
		for i := 0; i < tt.pre; i++ {
			_ = env.Move(grid.Up)
		}
		if got := env.Straight(tt.d); got != tt.want {
			t.Errorf("%s: Straight(%v) = %d, want %d", tt.name, tt.d, got, tt.want)
		}
	}
}

// TestStraightFallsBackToOneMove: each feature that needs per-move
// checks makes Straight, Free or both vouch for a single move.
func TestStraightFallsBackToOneMove(t *testing.T) {
	many := make([]grid.Point, targetSetMapThreshold+1)
	for i := range many {
		many[i] = grid.Point{X: int64(i) + 1, Y: 7}
	}
	tests := []struct {
		name           string
		cfg            EnvConfig
		straight, free bool // whether each falls back to 1
	}{
		{"opaque open plane", EnvConfig{World: resolveOnly{OpenPlane{}}}, true, true},
		{"torus", EnvConfig{World: Torus{L: 9}}, true, true},
		{"obstacles", EnvConfig{World: NewObstacles(grid.Rect{Min: grid.Point{X: 5, Y: 5}, Max: grid.Point{X: 6, Y: 6}})}, true, true},
		{"dynamic world", EnvConfig{DynamicWorld: FixedWorld{}}, true, true},
		{"dynamic sector world", EnvConfig{DynamicWorld: FixedWorld{W: Quadrant{}}}, true, true},
		{"dynamic targets", EnvConfig{DynamicTargets: FixedTargets{Points: []grid.Point{{X: 9, Y: 9}}}}, true, true},
		{"crash faults", EnvConfig{CrashProb: 1e-9, FaultSrc: rng.New(2)}, true, true},
		{"hook", EnvConfig{Hook: &auditHook{}}, true, true},
		{"recorded path", EnvConfig{RecordPath: true}, true, true},
		{"indexed target set", EnvConfig{Targets: many}, true, false},
		{"tracked visits", EnvConfig{TrackVisits: grid.NewVisitSet(4)}, false, true},
	}
	for _, tt := range tests {
		tt.cfg.Src = rng.New(1)
		env := NewEnv(tt.cfg)
		if got := env.Straight(grid.Up); (got == 1) != tt.straight {
			t.Errorf("%s: Straight = %d, falls back to 1: %v, want %v", tt.name, got, got == 1, tt.straight)
		}
		if got := env.Free(); (got == 1) != tt.free {
			t.Errorf("%s: Free = %d, falls back to 1: %v, want %v", tt.name, got, got == 1, tt.free)
		}
		// Reset recomputes the choice: the same Env on a plain config
		// runs free again.
		env.Reset(EnvConfig{Src: rng.New(1)})
		if got := env.Straight(grid.Up); got != math.MaxUint64 {
			t.Errorf("%s: Straight after a plain Reset = %d, want MaxUint64", tt.name, got)
		}
		if got := env.Free(); got != math.MaxUint64 {
			t.Errorf("%s: Free after a plain Reset = %d, want MaxUint64", tt.name, got)
		}
	}
}

// TestStraightAndFreeBounds pins the run lengths themselves: the ray and
// ball bounds from budgets, targets and sector walls, and blocked runs.
func TestStraightAndFreeBounds(t *testing.T) {
	const inf = math.MaxUint64
	tests := []struct {
		name     string
		cfg      EnvConfig
		pre      []grid.Direction
		d        grid.Direction
		straight uint64
		free     uint64
	}{
		{name: "open plane", d: grid.Left, straight: inf, free: inf},
		{name: "budget", cfg: EnvConfig{MoveBudget: 9}, pre: []grid.Direction{grid.Up}, d: grid.Up, straight: 8, free: 8},
		{name: "target at distance 6", cfg: EnvConfig{Targets: []grid.Point{{X: 6, Y: -2}}}, d: grid.Right, straight: inf, free: 5},
		{name: "target on the ray", cfg: EnvConfig{Targets: []grid.Point{{X: 6, Y: 0}}}, d: grid.Right, straight: 6, free: 5},
		{name: "adjacent target", cfg: EnvConfig{Targets: []grid.Point{{X: 0, Y: -1}}}, d: grid.Down, straight: 1, free: 1},
		{name: "target at distance 2", cfg: EnvConfig{Targets: []grid.Point{{X: 2, Y: 1}}}, d: grid.Up, straight: inf, free: 1},
		{name: "quadrant, left to the wall", cfg: EnvConfig{World: Quadrant{}},
			pre: []grid.Direction{grid.Right, grid.Right, grid.Right, grid.Up, grid.Up}, d: grid.Left, straight: 3, free: 2},
		{name: "quadrant, down to the floor", cfg: EnvConfig{World: Quadrant{}},
			pre: []grid.Direction{grid.Right, grid.Right, grid.Right, grid.Up, grid.Up}, d: grid.Down, straight: 2, free: 2},
		{name: "quadrant, nearer the left wall", cfg: EnvConfig{World: Quadrant{}},
			pre: []grid.Direction{grid.Right, grid.Right, grid.Up, grid.Up, grid.Up, grid.Up, grid.Up}, d: grid.Left, straight: 2, free: 2},
		{name: "quadrant, away from the walls", cfg: EnvConfig{World: Quadrant{}, MoveBudget: 40},
			pre: []grid.Direction{grid.Right, grid.Up}, d: grid.Right, straight: 38, free: 1},
		{name: "quadrant, blocked run", cfg: EnvConfig{World: Quadrant{}, MoveBudget: 40},
			pre: []grid.Direction{grid.Up, grid.Up}, d: grid.Left, straight: 38, free: 1},
		{name: "quadrant, blocked run, unlimited", cfg: EnvConfig{World: Quadrant{}}, d: grid.Down, straight: inf, free: 1},
		{name: "quadrant, target on the wall", cfg: EnvConfig{World: Quadrant{}, Targets: []grid.Point{{X: 0, Y: 9}}}, d: grid.Up, straight: 9, free: 1},
		{name: "half plane, left is open", cfg: EnvConfig{World: HalfPlane{}},
			pre: []grid.Direction{grid.Up, grid.Up, grid.Up, grid.Up}, d: grid.Left, straight: inf, free: 4},
		{name: "half plane, blocked run", cfg: EnvConfig{World: HalfPlane{}, MoveBudget: 7}, d: grid.Down, straight: 7, free: 1},
		{name: "half plane, budget exhausted", cfg: EnvConfig{World: HalfPlane{}, MoveBudget: 2},
			pre: []grid.Direction{grid.Down, grid.Down}, d: grid.Down, straight: 1, free: 1},
	}
	for _, tt := range tests {
		tt.cfg.Src = rng.New(1)
		env := NewEnv(tt.cfg)
		for _, d := range tt.pre {
			_ = env.Move(d)
		}
		if got := env.Straight(tt.d); got != tt.straight {
			t.Errorf("%s: Straight(%v) = %d, want %d", tt.name, tt.d, got, tt.straight)
		}
		if got := env.Free(); got != tt.free {
			t.Errorf("%s: Free = %d, want %d", tt.name, got, tt.free)
		}
	}
}

// TestShiftIsTheNetMove: Shift applies a block's displacement and counts,
// and leaves the source alone.
func TestShiftIsTheNetMove(t *testing.T) {
	src := rng.New(4)
	env := NewEnv(EnvConfig{Src: src, MoveBudget: 10})
	next := *src
	env.Shift(-2, 3, 7)
	if env.Pos() != (grid.Point{X: -2, Y: 3}) || env.Moves() != 7 || env.Steps() != 7 || env.Done() {
		t.Fatalf("after Shift: pos %v moves %d steps %d done %v", env.Pos(), env.Moves(), env.Steps(), env.Done())
	}
	env.Shift(1, 0, 3)
	if !env.Done() || env.Found() {
		t.Fatalf("a Shift to the budget's end: done %v found %v, want done, not found", env.Done(), env.Found())
	}
	if src.Uint64() != next.Uint64() {
		t.Error("Shift drew from the source")
	}
}

// TestAdvanceMatchesMoves holds Advance to n Move calls with a Done check
// after each, on plain and stepwise environments alike.
func TestAdvanceMatchesMoves(t *testing.T) {
	targets := []grid.Point{{X: 0, Y: 5}, {X: 3, Y: 5}, {X: -2, Y: 5}, {X: 3, Y: -1}}
	configs := map[string]func() EnvConfig{
		"plain":   func() EnvConfig { return EnvConfig{Targets: targets, MoveBudget: 40} },
		"tracked": func() EnvConfig { return EnvConfig{Targets: targets, TrackVisits: grid.NewVisitSet(8)} },
		"world":   func() EnvConfig { return EnvConfig{Targets: targets, World: Quadrant{}, MoveBudget: 30} },
		"half-plane": func() EnvConfig {
			return EnvConfig{Targets: targets, World: HalfPlane{}, MoveBudget: 50, TrackVisits: grid.NewVisitSet(8)}
		},
		"crashing": func() EnvConfig {
			return EnvConfig{Targets: targets, CrashProb: 0.05, FaultSrc: rng.New(3)}
		},
	}
	legs := []struct {
		d grid.Direction
		n uint64
	}{{grid.Left, 2}, {grid.Up, 4}, {grid.Right, 0}, {grid.Right, 6}, {grid.Up, 3}, {grid.Down, 9}, {grid.Up, 1}, {grid.Left, 12}}
	for name, mk := range configs {
		refCfg, gotCfg := mk(), mk()
		refCfg.Src, gotCfg.Src = rng.New(1), rng.New(1)
		ref, got := NewEnv(refCfg), NewEnv(gotCfg)
		for i, leg := range legs {
			for j := uint64(0); j < leg.n; j++ {
				if ref.Move(leg.d) != nil || ref.Done() {
					break
				}
			}
			got.Advance(leg.d, leg.n)
			if ref.Pos() != got.Pos() || ref.Moves() != got.Moves() || ref.Steps() != got.Steps() ||
				ref.Found() != got.Found() || ref.FoundAt() != got.FoundAt() || ref.Crashed() != got.Crashed() {
				t.Fatalf("%s leg %d: Advance gave pos %v moves %d steps %d found %v@%d crashed %v; moves gave %v %d %d %v@%d %v",
					name, i, got.Pos(), got.Moves(), got.Steps(), got.Found(), got.FoundAt(), got.Crashed(),
					ref.Pos(), ref.Moves(), ref.Steps(), ref.Found(), ref.FoundAt(), ref.Crashed())
			}
			if refCfg.TrackVisits != nil && refCfg.TrackVisits.Count() != gotCfg.TrackVisits.Count() {
				t.Fatalf("%s leg %d: %d cells visited, moves visited %d", name, i,
					gotCfg.TrackVisits.Count(), refCfg.TrackVisits.Count())
			}
			// Keep walking after a find: the agent may move on, as with Move.
			if ref.Done() && !ref.Found() {
				break
			}
		}
	}
}

// TestRunMergesTargetsOncePerRun pins that sim.Run builds the target set
// once, not once per agent: neither more agents nor more targets (all in
// one index tile) cost more allocations.
func TestRunMergesTargetsOncePerRun(t *testing.T) {
	prog := ProgramFunc(func(env *Env) error {
		env.Advance(grid.Up, 3)
		return nil
	})
	factory := func() Program { return prog }
	allocs := func(targets, agents int) float64 {
		pts := make([]grid.Point, targets)
		for i := range pts {
			pts[i] = grid.Point{X: int64(i%16) + 5, Y: int64(i/16) + 5}
		}
		cfg := Config{NumAgents: agents, Target: grid.Point{X: 1, Y: 9}, HasTarget: true, Targets: pts, Workers: 1}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(cfg, factory, rng.New(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(targetSetMapThreshold+1, 1)
	for _, c := range [][2]int{{targetSetMapThreshold + 1, 64}, {256, 1}, {256, 64}} {
		if got := allocs(c[0], c[1]); got > base {
			t.Errorf("%d targets, %d agents: %v allocations per Run, want at most the %v of %d targets and one agent",
				c[0], c[1], got, base, targetSetMapThreshold+1)
		}
	}
}
