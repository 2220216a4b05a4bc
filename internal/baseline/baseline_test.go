package baseline

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestRandomWalkFindsNearTarget(t *testing.T) {
	st, err := sim.RunTrials(sim.Config{
		NumAgents:  4,
		Target:     grid.Point{X: 2, Y: -1},
		HasTarget:  true,
		MoveBudget: 1 << 20,
	}, RandomWalkFactory(), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FoundAll {
		t.Errorf("found fraction = %v, want 1", st.FoundFrac)
	}
}

func TestRandomWalkAudit(t *testing.T) {
	a := PureRandomWalk{}.Audit()
	if a.B != 2 || a.Ell != 2 {
		t.Errorf("audit = %+v, want b=2 ℓ=2", a)
	}
	if a.Chi() != 3 {
		t.Errorf("χ = %v, want 3", a.Chi())
	}
}

func TestSpiralCoversBall(t *testing.T) {
	// The spiral must visit every cell of a radius-5 ball within
	// (2·5+3)² moves.
	v := grid.NewVisitSet(5)
	env := sim.NewEnv(sim.EnvConfig{
		Src:         rng.New(1),
		MoveBudget:  13 * 13,
		TrackVisits: v,
	})
	if err := (Spiral{}).Run(env); err != nil {
		t.Fatal(err)
	}
	if v.CoverageFraction() != 1 {
		t.Errorf("spiral coverage of radius-5 ball = %v, want 1", v.CoverageFraction())
	}
}

func TestSpiralFindsEveryTargetDeterministically(t *testing.T) {
	// Every target within distance 4 is found, and re-running gives the
	// identical move count (determinism).
	grid.BallPoints(4, func(p grid.Point) bool {
		if p == grid.Origin {
			return true
		}
		counts := make([]uint64, 2)
		for run := 0; run < 2; run++ {
			env := sim.NewEnv(sim.EnvConfig{
				Target: p, HasTarget: true,
				Src: rng.New(9), MoveBudget: 1 << 12,
			})
			if err := (Spiral{}).Run(env); err != nil {
				t.Fatal(err)
			}
			if !env.Found() {
				t.Fatalf("spiral missed %v", p)
			}
			counts[run] = env.FoundAt()
		}
		if counts[0] != counts[1] {
			t.Fatalf("spiral nondeterministic at %v: %d vs %d", p, counts[0], counts[1])
		}
		return true
	})
}

func TestSpiralWorstCaseQuadratic(t *testing.T) {
	// The corner target at distance d costs Θ(d²) moves.
	const d = 10
	env := sim.NewEnv(sim.EnvConfig{
		Target: grid.Point{X: -d, Y: -d}, HasTarget: true,
		Src: rng.New(1), MoveBudget: 1 << 16,
	})
	if err := (Spiral{}).Run(env); err != nil {
		t.Fatal(err)
	}
	if !env.Found() {
		t.Fatal("spiral missed the corner")
	}
	if env.FoundAt() < uint64(d*d) {
		t.Errorf("corner found at %d moves, expected ≥ d² = %d", env.FoundAt(), d*d)
	}
}

func TestSpiralAudit(t *testing.T) {
	a := Spiral{}.AuditForDistance(1 << 10)
	if a.B < 10 {
		t.Errorf("spiral b = %d, want Θ(log D) ≥ 10", a.B)
	}
	if a.Ell != 1 {
		t.Errorf("spiral ℓ = %d, want 1 (deterministic)", a.Ell)
	}
}

func TestFeinermanValidation(t *testing.T) {
	if _, err := NewFeinerman(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := FeinermanFactory(-1); err == nil {
		t.Error("factory with n=-1 should fail")
	}
}

func TestFeinermanFindsTarget(t *testing.T) {
	f, err := FeinermanFactory(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunPlacedTrials(sim.Config{
		NumAgents:  4,
		MoveBudget: 1 << 22,
	}, sim.PlaceUniformBall, 16, f, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.FoundFrac < 0.9 {
		t.Errorf("found fraction = %v, want ≥ 0.9", st.FoundFrac)
	}
}

func TestFeinermanAuditIsLogD(t *testing.T) {
	p, err := NewFeinerman(4)
	if err != nil {
		t.Fatal(err)
	}
	a := p.AuditForDistance(1 << 12)
	if a.B < 30 { // three ~log D registers
		t.Errorf("feinerman b = %d, want Θ(log D)", a.B)
	}
	// The contrast the paper draws: Feinerman needs far more memory than
	// the χ ≈ log log D algorithms.
	if a.B < 3*12 {
		t.Errorf("b = %d, want ≥ 3 log D = 36", a.B)
	}
}

func TestWalkTo(t *testing.T) {
	env := sim.NewEnv(sim.EnvConfig{Src: rng.New(1)})
	dest := grid.Point{X: -3, Y: 5}
	walkTo(env, dest)
	if env.Pos() != dest {
		t.Errorf("walkTo ended at %v, want %v", env.Pos(), dest)
	}
	if env.Moves() != uint64(dest.L1Norm()) {
		t.Errorf("walkTo used %d moves, want %d", env.Moves(), dest.L1Norm())
	}
}

func TestWalkToFindsTargetOnPath(t *testing.T) {
	env := sim.NewEnv(sim.EnvConfig{
		Target: grid.Point{X: 2, Y: 0}, HasTarget: true, Src: rng.New(1)})
	walkTo(env, grid.Point{X: 5, Y: 0})
	if !env.Found() {
		t.Error("walkTo crossed the target without finding it")
	}
	if env.Moves() != 2 {
		t.Errorf("walkTo continued after finding: %d moves", env.Moves())
	}
}

// stepwiseWalkTo and stepwiseSpiralFrom are walkTo and spiralFrom as
// per-move loops; the Advance-based versions must match them move for move.
func stepwiseWalkTo(env *sim.Env, dest grid.Point) {
	for env.Pos().X != dest.X {
		d := grid.Right
		if env.Pos().X > dest.X {
			d = grid.Left
		}
		if env.Move(d) != nil || env.Done() {
			return
		}
	}
	for env.Pos().Y != dest.Y {
		d := grid.Up
		if env.Pos().Y > dest.Y {
			d = grid.Down
		}
		if env.Move(d) != nil || env.Done() {
			return
		}
	}
}

func stepwiseSpiralFrom(env *sim.Env, maxMoves int64) {
	dirs := [4]grid.Direction{grid.Right, grid.Up, grid.Left, grid.Down}
	var done int64
	for leg := int64(1); ; leg++ {
		for rep := 0; rep < 2; rep++ {
			d := dirs[int(2*(leg-1)+int64(rep))%4]
			for s := int64(0); s < leg; s++ {
				if env.Done() || (maxMoves >= 0 && done >= maxMoves) {
					return
				}
				if env.Move(d) != nil {
					return
				}
				done++
			}
		}
	}
}

func TestWalkToAndSpiralMatchStepwise(t *testing.T) {
	worlds := map[string]sim.World{
		"open plane": nil,
		"quadrant":   sim.Quadrant{},
		"obstacles":  sim.NewObstacles(grid.NewRect(grid.Point{X: 2, Y: -1}, grid.Point{X: 2, Y: 3})),
	}
	targets := [][]grid.Point{nil, {{X: 4, Y: 0}}, {{X: -3, Y: 5}, {X: 1, Y: 1}}}
	dests := []grid.Point{{X: 5, Y: 0}, {X: -3, Y: 5}, {X: 4, Y: -6}, {X: 0, Y: 0}}
	for name, world := range worlds {
		for ti, tg := range targets {
			for _, budget := range []uint64{0, 3, 17} {
				for _, dest := range dests {
					for _, maxMoves := range []int64{-1, 0, 5, 40} {
						if world != nil && budget == 0 {
							continue // a blocked leg would bump the wall forever
						}
						cfg := sim.EnvConfig{Targets: tg, World: world, MoveBudget: budget, Src: rng.New(1)}
						if budget == 0 && maxMoves < 0 && len(tg) == 0 {
							cfg.MoveBudget = 200 // an unbounded spiral never stops
						}
						ref, got := sim.NewEnv(cfg), sim.NewEnv(cfg)
						stepwiseWalkTo(ref, dest)
						walkTo(got, dest)
						if !ref.Done() {
							stepwiseSpiralFrom(ref, maxMoves)
						}
						if !got.Done() {
							spiralFrom(got, maxMoves)
						}
						if ref.Pos() != got.Pos() || ref.Moves() != got.Moves() || ref.Found() != got.Found() || ref.FoundAt() != got.FoundAt() {
							t.Fatalf("%s targets#%d budget %d dest %v max %d: got pos %v moves %d found %v@%d, stepwise %v %d %v@%d",
								name, ti, budget, dest, maxMoves, got.Pos(), got.Moves(), got.Found(), got.FoundAt(),
								ref.Pos(), ref.Moves(), ref.Found(), ref.FoundAt())
						}
					}
				}
			}
		}
	}
}
