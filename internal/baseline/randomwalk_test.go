package baseline

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// stepwiseRandomWalk is the uniform random walk as one Move per draw.
// PureRandomWalk.Run must match it draw for draw and move for move.
func stepwiseRandomWalk(env *sim.Env) error {
	src := env.Src()
	for !env.Done() {
		if err := env.Move(grid.Directions[src.Intn(4)]); err != nil {
			if errors.Is(err, sim.ErrBudget) {
				return nil
			}
			return err
		}
	}
	return nil
}

// eventHook logs every hook call, so the two sides' hook streams compare.
type eventHook struct{ events []string }

func (h *eventHook) OnMove(p grid.Point, i uint64) {
	h.events = append(h.events, fmt.Sprint("move", p, i))
}
func (h *eventHook) OnReturn() { h.events = append(h.events, "return") }
func (h *eventHook) OnFound(p grid.Point, i uint64) {
	h.events = append(h.events, fmt.Sprint("found", p, i))
}

// rwCase is one environment of the random-walk differential test.
type rwCase struct {
	name    string
	world   sim.World
	targets []grid.Point
	budget  uint64
	pre     []grid.Direction // plain moves before the walk
	crash   float64          // per-move crash probability
	track   bool             // TrackVisits
	path    bool             // RecordPath
	hook    bool             // an EnvHook
	seed    uint64
}

// rwSide is one of the two runs an rwCase compares.
type rwSide struct {
	env    *sim.Env
	visits *grid.VisitSet
	hook   *eventHook
}

func (c rwCase) side() rwSide {
	cfg := sim.EnvConfig{World: c.world, Targets: c.targets, MoveBudget: c.budget,
		Src: rng.New(c.seed), RecordPath: c.path}
	if c.crash > 0 {
		cfg.CrashProb = c.crash
		cfg.FaultSrc = rng.New(^c.seed)
	}
	s := rwSide{}
	if c.track {
		s.visits = grid.NewVisitSet(16)
		cfg.TrackVisits = s.visits
	}
	if c.hook {
		s.hook = &eventHook{}
		cfg.Hook = s.hook
	}
	s.env = sim.NewEnv(cfg)
	for _, d := range c.pre {
		_ = s.env.Move(d) // budget and crash errors are part of the case
	}
	return s
}

// diff describes the first observable difference between the reference
// side and the side under test, or returns "".
func (ref rwSide) diff(got rwSide) string {
	type obs struct {
		Pos                   grid.Point
		Moves, Steps, FoundAt uint64
		Found, Crashed        bool
	}
	look := func(s rwSide) obs {
		e := s.env
		return obs{e.Pos(), e.Moves(), e.Steps(), e.FoundAt(), e.Found(), e.Crashed()}
	}
	if r, g := look(ref), look(got); r != g {
		return fmt.Sprintf("state %+v, stepwise %+v", g, r)
	}
	if !slices.Equal(ref.env.Path(), got.env.Path()) {
		return fmt.Sprintf("path %v, stepwise %v", got.env.Path(), ref.env.Path())
	}
	if ref.hook != nil && !slices.Equal(ref.hook.events, got.hook.events) {
		return fmt.Sprintf("%d hook events, stepwise %d", len(got.hook.events), len(ref.hook.events))
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

// check runs the walk on both sides and reports the first difference. It
// returns the reference side, so callers can derive follow-up cases.
func (c rwCase) check(t testing.TB) rwSide {
	t.Helper()
	ref, got := c.side(), c.side()
	if d := ref.diff(got); d != "" {
		t.Fatalf("%s: sides differ before walking: %s", c.name, d)
	}
	if err := stepwiseRandomWalk(ref.env); err != nil {
		t.Fatalf("%s: stepwise walk: %v", c.name, err)
	}
	if err := (PureRandomWalk{}).Run(got.env); err != nil {
		t.Fatalf("%s: walk: %v", c.name, err)
	}
	if d := ref.diff(got); d != "" {
		t.Fatalf("%s (seed %d): %s", c.name, c.seed, d)
	}
	return ref
}

// rwWorlds are the worlds the differential test walks in: the open-plane
// fast path, both sector worlds (Free's clearance rule) and the worlds
// that keep one Move per draw.
func rwWorlds() map[string]sim.World {
	return map[string]sim.World{
		"open":        nil,
		"explicit":    sim.OpenPlane{},
		"quadrant":    sim.Quadrant{},
		"half-plane":  sim.HalfPlane{},
		"torus":       sim.Torus{L: 7},
		"obstacles":   sim.NewObstacles(grid.Rect{Min: grid.Point{X: 2, Y: -1}, Max: grid.Point{X: 3, Y: 4}}),
		"linear-rect": sim.Obstacles{Blocked: []grid.Rect{{Min: grid.Point{X: -3, Y: 1}, Max: grid.Point{X: -1, Y: 1}}}},
	}
}

// rwTargetSets are target sets on every path through Free's bound: none,
// one, one at distance 1, a linear ring of eight and an indexed set above
// eight. All are positions of every world rwWorlds lists.
func rwTargetSets() map[string][]grid.Point {
	ring := []grid.Point{{X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 1, Y: 5},
		{X: 5, Y: 1}, {X: 2, Y: 6}, {X: 6, Y: 2}, {X: 5, Y: 5}}
	return map[string][]grid.Point{
		"none":      nil,
		"one":       {{X: 5, Y: 3}},
		"adjacent":  {{X: 1, Y: 0}},
		"on a wall": {{X: 0, Y: 6}},
		"ring":      ring,
		"indexed":   append(slices.Clone(ring), grid.Point{X: 6, Y: 6}, grid.Point{X: 0, Y: 1}, grid.Point{X: 3, Y: 6}),
	}
}

// TestRandomWalkMatchesStepwise holds the block random walk to one Move
// per draw in every world, target set and budget regime, and with each
// environment feature that forces per-move checks.
func TestRandomWalkMatchesStepwise(t *testing.T) {
	for wname, w := range rwWorlds() {
		for tname, targets := range rwTargetSets() {
			for _, p := range targets {
				if w != nil && !w.Contains(p) {
					t.Fatalf("%s targets: %v is not a position of the %s world", tname, p, wname)
				}
			}
			for _, budget := range []uint64{1, 60, 3000} {
				for seed := uint64(1); seed <= 4; seed++ {
					c := rwCase{name: fmt.Sprintf("%s world, %s targets, budget %d", wname, tname, budget),
						world: w, targets: targets, budget: budget, seed: seed}
					ref := c.check(t)
					if ref.env.Found() {
						// A budget the find uses up exactly.
						c.name += ", budget exactly hit"
						c.budget = ref.env.FoundAt()
						c.check(t)
					}
				}
			}
		}
	}
	ring := rwTargetSets()["ring"]
	quadrant := sim.Quadrant{}
	cases := []rwCase{
		{name: "budget exhausted at entry", budget: 3, pre: []grid.Direction{grid.Up, grid.Up, grid.Right}},
		{name: "budget exhausted against a wall", world: quadrant, budget: 2, pre: []grid.Direction{grid.Left, grid.Down}},
		{name: "found at entry", targets: []grid.Point{grid.Origin}, budget: 100},
		{name: "found before the walk", targets: []grid.Point{{X: 0, Y: 2}}, budget: 100, pre: []grid.Direction{grid.Up, grid.Up}},
		{name: "pinned in the quadrant's corner", world: quadrant, targets: ring, budget: 2000, pre: []grid.Direction{grid.Left, grid.Down, grid.Left}},
		{name: "far from the wall", world: sim.HalfPlane{}, targets: []grid.Point{{X: 0, Y: 40}}, budget: 5000},
		{name: "crash faults", targets: ring, budget: 5000, crash: 0.002},
		{name: "crash faults, quadrant", world: quadrant, targets: ring, budget: 5000, crash: 0.002},
		{name: "tracked visits", targets: ring, budget: 2000, track: true},
		{name: "tracked visits, half-plane", world: sim.HalfPlane{}, targets: ring, budget: 2000, track: true},
		{name: "hook", targets: ring, budget: 2000, hook: true},
		{name: "hook, quadrant", world: quadrant, targets: ring, budget: 2000, hook: true},
		{name: "recorded path", targets: ring, budget: 2000, path: true},
		{name: "everything at once", world: quadrant, targets: ring, budget: 2000, crash: 0.001, track: true, path: true, hook: true},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 8; seed++ {
			c.seed = seed
			c.check(t)
		}
	}
}

// FuzzRandomWalkMatchesStepwise holds the block random walk to one Move
// per draw on generated environments: world, budget, pre-moves, target
// points and the per-move features picked by flags.
func FuzzRandomWalkMatchesStepwise(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(200), []byte{0}, []byte{5, 3})
	f.Add(uint64(2), uint8(2), uint8(0), uint16(900), []byte{2, 1, 2}, []byte{0, 6, 1, 0})
	f.Add(uint64(3), uint8(3), uint8(1), uint16(40), []byte{}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add(uint64(4), uint8(4), uint8(14), uint16(300), []byte{3}, []byte{2, 2})
	f.Add(uint64(5), uint8(1), uint8(2), uint16(1), []byte{}, []byte{})
	worlds := []sim.World{nil, sim.Quadrant{}, sim.HalfPlane{}, sim.Torus{L: 5},
		sim.NewObstacles(grid.Rect{Min: grid.Point{X: 2, Y: -2}, Max: grid.Point{X: 2, Y: 2}}), sim.OpenPlane{}}
	f.Fuzz(func(t *testing.T, seed uint64, worldSel, flags uint8, budget uint16, pre, pts []byte) {
		c := rwCase{
			name:   "fuzz",
			world:  worlds[int(worldSel)%len(worlds)],
			budget: uint64(budget)%4000 + 1, // the walk never ends on its own without one
			track:  flags&1 != 0,
			path:   flags&2 != 0,
			hook:   flags&4 != 0,
			seed:   seed,
		}
		if flags&8 != 0 {
			c.crash = 0.005
		}
		for i, b := range pre {
			if i == 16 {
				break
			}
			c.pre = append(c.pre, grid.Directions[b%4])
		}
		for i := 0; i+1 < len(pts) && len(c.targets) < 12; i += 2 {
			p := grid.Point{X: int64(pts[i] % 9), Y: int64(pts[i+1] % 9)}
			if c.world == nil || c.world.Contains(p) {
				c.targets = append(c.targets, p)
			}
		}
		c.check(t)
	})
}
