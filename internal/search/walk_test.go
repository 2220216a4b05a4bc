package search

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// stepwiseWalk is Algorithm 3 as a per-step loop: flip coin(k, ℓ), move on
// heads, stop when the environment is done. Walk must match it draw for
// draw and move for move.
func stepwiseWalk(env *sim.Env, coin *rng.Coin, k uint, dir grid.Direction) {
	for !coin.Composite(k) {
		if env.Move(dir) != nil || env.Done() {
			return
		}
	}
}

// walkCase is one environment and walk sequence of the differential test.
type walkCase struct {
	name    string
	ell, k  uint
	dir     grid.Direction // first walk; each later walk turns to the next direction
	walks   int
	budget  uint64
	pre     uint64 // plain moves in dir before the first walk
	targets []grid.Point
	track   bool // TrackVisits
	path    bool // RecordPath
	world   sim.World
	crash   float64 // per-move crash probability
	dynamic bool    // targets drift on a schedule instead of standing still
	seed    uint64
}

// walkSide is one of the two runs a walkCase compares.
type walkSide struct {
	env    *sim.Env
	coin   *rng.Coin
	visits *grid.VisitSet
}

func (c walkCase) side() walkSide {
	src := rng.New(c.seed)
	cfg := sim.EnvConfig{MoveBudget: c.budget, Src: src, RecordPath: c.path}
	if c.dynamic {
		base := c.targets
		if len(base) == 0 {
			base = []grid.Point{{X: 0, Y: 3}}
		}
		cfg.DynamicTargets = sim.DriftTargets{Base: base, V: grid.Point{X: 1, Y: 0}, Every: 5}
	} else if len(c.targets) > 0 {
		cfg.Targets = c.targets
	}
	cfg.World = c.world
	if c.crash > 0 {
		cfg.CrashProb = c.crash
		cfg.FaultSrc = rng.New(^c.seed)
	}
	var vs *grid.VisitSet
	if c.track {
		vs = grid.NewVisitSet(16)
		cfg.TrackVisits = vs
	}
	env := sim.NewEnv(cfg)
	for i := uint64(0); i < c.pre; i++ {
		_ = env.Move(c.dir) // budget and crash errors are part of the case
	}
	return walkSide{env: env, coin: rng.MustCoin(c.ell, src), visits: vs}
}

// diff describes the first observable difference between the reference
// side and the side under test, or returns "".
func (ref walkSide) diff(got walkSide) string {
	type obs struct {
		Pos                   grid.Point
		Moves, Steps, FoundAt uint64
		Found, Crashed        bool
		Flips                 uint64
	}
	look := func(s walkSide) obs {
		return obs{s.env.Pos(), s.env.Moves(), s.env.Steps(), s.env.FoundAt(),
			s.env.Found(), s.env.Crashed(), s.coin.Flips()}
	}
	if r, g := look(ref), look(got); r != g {
		return fmt.Sprintf("state %+v, stepwise %+v", g, r)
	}
	if !slices.Equal(ref.env.Path(), got.env.Path()) {
		return fmt.Sprintf("path %v, stepwise %v", got.env.Path(), ref.env.Path())
	}
	if ref.visits != nil {
		if r, g := ref.visits.Count(), got.visits.Count(); r != g {
			return fmt.Sprintf("%d cells visited, stepwise %d", g, r)
		}
		missing := ""
		ref.visits.Each(func(p grid.Point) {
			if missing == "" && !got.visits.Contains(p) {
				missing = fmt.Sprintf("cell %v not visited; the stepwise walk visited it", p)
			}
		})
		if missing != "" {
			return missing
		}
	}
	// Draw the next word on both sides: equal streams stay equal.
	if r, g := ref.env.Src().Uint64(), got.env.Src().Uint64(); r != g {
		return fmt.Sprintf("next source word %#x, stepwise %#x", g, r)
	}
	return ""
}

// check runs the case's walks on both sides and reports the first
// difference after any walk.
func (c walkCase) check(t testing.TB) {
	t.Helper()
	ref, got := c.side(), c.side()
	if d := ref.diff(got); d != "" {
		t.Fatalf("%s: sides differ before walking: %s", c.name, d)
	}
	dir := c.dir
	for i := 0; i < c.walks; i++ {
		stepwiseWalk(ref.env, ref.coin, c.k, dir)
		if err := Walk(got.env, got.coin, c.k, dir); err != nil {
			t.Fatalf("%s: walk %d: %v", c.name, i, err)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("%s: after walk %d (%v): %s", c.name, i, dir, d)
		}
		dir = grid.Directions[int(dir)%len(grid.Directions)]
	}
}

// walkCases covers every path through Straight and Advance: each coin
// precision and composite size, budgets that run out before, during and
// after the walk, targets on and off the walk's ray, linear and indexed
// target sets, sector worlds (runs up to a wall, blocked runs against it,
// targets on it, budgets that end mid-blocked-run) and each environment
// feature that forces per-move checks.
func walkCases() []walkCase {
	var cases []walkCase
	ahead := []grid.Point{{X: 0, Y: 6}}
	for _, ell := range []uint{0, 1, 2, 5, rng.MaxEll} {
		for k := uint(0); k <= 8; k++ {
			cases = append(cases, walkCase{
				name: fmt.Sprintf("ℓ=%d k=%d", ell, k), ell: ell, k: k,
				dir: grid.Up, walks: 4, budget: 600, targets: ahead,
				seed: uint64(ell)<<8 | uint64(k),
			})
		}
	}
	eight := []grid.Point{{X: 0, Y: 9}, {X: 0, Y: 4}, {X: 3, Y: 0}, {X: -2, Y: 0},
		{X: 5, Y: 5}, {X: 0, Y: -7}, {X: 1, Y: 2}, {X: 4, Y: 0}}
	many := append(slices.Clone(eight), grid.Point{X: -6, Y: 0}, grid.Point{X: 0, Y: 2},
		grid.Point{X: 7, Y: 1}, grid.Point{X: 2, Y: 7})
	base := walkCase{ell: 1, k: 3, dir: grid.Up, walks: 6, budget: 400, seed: 11}
	with := func(name string, edit func(*walkCase)) walkCase {
		c := base
		c.name = name
		edit(&c)
		return c
	}
	cases = append(cases,
		with("unlimited budget", func(c *walkCase) { c.budget = 0 }),
		with("unlimited budget, target ahead", func(c *walkCase) { c.budget, c.ell, c.k, c.targets = 0, rng.MaxEll, 1, ahead }),
		with("budget 1", func(c *walkCase) { c.budget = 1 }),
		with("small budget", func(c *walkCase) { c.budget, c.ell = 7, 5 }),
		with("budget exhausted at entry", func(c *walkCase) { c.budget, c.pre = 3, 3 }),
		with("found at entry (origin target)", func(c *walkCase) { c.targets = []grid.Point{grid.Origin} }),
		with("found at entry (after pre-moves)", func(c *walkCase) { c.targets, c.pre = []grid.Point{{X: 0, Y: 2}}, 2 }),
		with("target adjacent", func(c *walkCase) { c.targets, c.ell = []grid.Point{{X: 0, Y: 1}}, 5 }),
		with("target behind", func(c *walkCase) { c.targets = []grid.Point{{X: 0, Y: -4}} }),
		with("target off the ray", func(c *walkCase) { c.targets = []grid.Point{{X: 1, Y: 5}} }),
		with("target ahead, long walk", func(c *walkCase) { c.targets, c.ell, c.k = []grid.Point{{X: 0, Y: 40}}, rng.MaxEll, 1 }),
		with("target beyond the budget", func(c *walkCase) { c.targets, c.ell, c.k, c.budget = ahead, rng.MaxEll, 1, 4 }),
		with("target at the budget's last cell", func(c *walkCase) { c.targets, c.ell, c.k, c.budget = ahead, rng.MaxEll, 1, 6 }),
		with("eight static targets", func(c *walkCase) { c.targets = eight }),
		with("indexed target set", func(c *walkCase) { c.targets = many }),
		with("tracked visits", func(c *walkCase) { c.targets, c.track = eight, true }),
		with("tracked visits, indexed targets", func(c *walkCase) { c.targets, c.track = many, true }),
		with("recorded path", func(c *walkCase) { c.targets, c.path = eight, true }),
		with("quadrant world", func(c *walkCase) { c.targets, c.world, c.dir = eight, sim.Quadrant{}, grid.Left }),
		with("half-plane world", func(c *walkCase) { c.targets, c.world, c.dir = eight, sim.HalfPlane{}, grid.Down }),
		with("quadrant world, long walks", func(c *walkCase) {
			c.targets, c.world, c.dir, c.ell, c.k, c.pre = eight, sim.Quadrant{}, grid.Right, 5, 1, 2
		}),
		with("pinned against the quadrant's wall", func(c *walkCase) { c.world, c.dir, c.pre, c.ell = sim.Quadrant{}, grid.Left, 3, 5 }),
		with("pinned against the half-plane's floor", func(c *walkCase) {
			c.targets, c.world, c.dir, c.pre, c.ell = eight, sim.HalfPlane{}, grid.Down, 4, 5
		}),
		with("targets on the walls", func(c *walkCase) {
			c.targets, c.world, c.dir, c.ell, c.k = []grid.Point{{X: 3, Y: 0}, {X: 0, Y: 2}, {X: 0, Y: 7}}, sim.Quadrant{}, grid.Right, 5, 1
		}),
		with("target on the floor", func(c *walkCase) {
			c.targets, c.world, c.dir, c.ell, c.k = []grid.Point{{X: -3, Y: 0}, {X: 2, Y: 0}}, sim.HalfPlane{}, grid.Left, 5, 1
		}),
		with("budget runs out mid-blocked-run", func(c *walkCase) {
			c.world, c.dir, c.budget, c.ell, c.k = sim.Quadrant{}, grid.Left, 5, rng.MaxEll, 1
		}),
		with("budget runs out mid-blocked-run, half-plane", func(c *walkCase) {
			c.world, c.dir, c.budget, c.pre, c.ell, c.k = sim.HalfPlane{}, grid.Down, 9, 2, rng.MaxEll, 1
		}),
		with("tracked visits, quadrant", func(c *walkCase) { c.targets, c.track, c.world, c.dir = eight, true, sim.Quadrant{}, grid.Left }),
		with("indexed targets, quadrant", func(c *walkCase) { c.targets, c.world = many, sim.Quadrant{} }),
		with("crash faults", func(c *walkCase) { c.targets, c.crash, c.budget = eight, 0.02, 0 }),
		with("dynamic target schedule", func(c *walkCase) { c.dynamic, c.targets = true, []grid.Point{{X: -3, Y: 2}} }),
		with("dynamic schedule, tracked, crashing", func(c *walkCase) { c.dynamic, c.track, c.crash = true, true, 0.01 }),
	)
	return cases
}

func TestWalkMatchesStepwise(t *testing.T) {
	for _, c := range walkCases() {
		for seed := uint64(0); seed < 8; seed++ {
			c := c
			c.seed = c.seed*1000 + seed
			c.check(t)
		}
	}
}

// FuzzWalkMatchesStepwise holds Walk to the per-step loop on generated
// environments: coin precision, composite size, direction, budget,
// pre-moves, target points, the sector world and the per-move features
// picked by flags.
func FuzzWalkMatchesStepwise(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint8(0), uint8(0), uint16(200), uint8(0), []byte{0, 6})
	f.Add(uint64(2), uint8(4), uint8(1), uint8(3), uint8(0), uint16(0), uint8(0), []byte{6, 0})
	f.Add(uint64(3), uint8(2), uint8(2), uint8(1), uint8(1), uint16(9), uint8(9), []byte{})
	f.Add(uint64(4), uint8(3), uint8(5), uint8(2), uint8(6), uint16(50), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add(uint64(5), uint8(1), uint8(0), uint8(0), uint8(24), uint16(30), uint8(1), []byte{0, 0})
	f.Add(uint64(6), uint8(4), uint8(1), uint8(2), uint8(2), uint16(12), uint8(3), []byte{0, 3, 4, 0})
	f.Add(uint64(7), uint8(4), uint8(1), uint8(1), uint8(32), uint16(0), uint8(5), []byte{5, 0, 250, 0})
	ells := []uint{0, 1, 2, 5, rng.MaxEll}
	f.Fuzz(func(t *testing.T, seed uint64, ellSel, k, dirSel, flags uint8, budget uint16, pre uint8, pts []byte) {
		c := walkCase{
			name:    "fuzz",
			ell:     ells[int(ellSel)%len(ells)],
			k:       uint(k % 9),
			dir:     grid.Directions[int(dirSel)%len(grid.Directions)],
			walks:   4,
			budget:  uint64(budget),
			pre:     uint64(pre % 16),
			track:   flags&1 != 0,
			dynamic: flags&8 != 0,
			path:    flags&16 != 0,
			seed:    seed,
		}
		if flags&4 != 0 {
			c.crash = 0.01
		}
		switch {
		case flags&2 != 0:
			c.world = sim.Quadrant{}
		case flags&32 != 0:
			c.world = sim.HalfPlane{}
		}
		// An unlimited walk with rare tails would run for too long.
		if c.budget == 0 && c.k*c.ell > 10 {
			c.budget = 1 << 12
		}
		for i := 0; i+1 < len(pts) && len(c.targets) < 12; i += 2 {
			c.targets = append(c.targets, grid.Point{X: int64(int8(pts[i])) % 12, Y: int64(int8(pts[i+1])) % 12})
		}
		c.check(t)
	})
}
