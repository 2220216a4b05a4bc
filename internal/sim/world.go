package sim

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// World is the topology agents move on: it decides which moves are legal,
// applies wraparound, and reports position membership. The paper's model is
// the unbounded open plane; the scenario engine supplies restricted worlds
// (sectors, tori, obstacle fields) that the lower-bound discussion ranges
// over.
//
// Implementations must be immutable after construction and safe for
// concurrent use: one World value is shared by every agent of a run. They
// must not consume randomness — a world is a pure function of positions, so
// that swapping worlds never perturbs the agents' random streams.
//
// A nil World everywhere in this package means the open plane, and so does
// an explicit OpenPlane{}: each engine maps both to one representation
// (the rounds engine to OpenPlane{}, Env to nil), so the two run the same
// code.
type World interface {
	// Name returns the world's short identifier (used in errors and tables).
	Name() string
	// Resolve maps a move attempt from pos in direction d to the resulting
	// position, reporting whether the move was performed. A blocked move
	// (performed == false) leaves the agent in place; engines still charge
	// it against the move budget so that an agent pinned against a wall
	// cannot loop forever.
	Resolve(pos grid.Point, d grid.Direction) (next grid.Point, performed bool)
	// Contains reports whether p is a position of the world. The origin
	// must always be contained (agents start there).
	Contains(p grid.Point) bool
	// Validate checks the world's parameters (and that it contains the
	// origin). Engines call it once per run.
	Validate() error
}

// OpenPlane is the paper's unbounded lattice Z²: every move is legal.
type OpenPlane struct{}

// Name implements World.
func (OpenPlane) Name() string { return "open-plane" }

// Resolve implements World: every move is performed.
func (OpenPlane) Resolve(pos grid.Point, d grid.Direction) (grid.Point, bool) {
	return pos.Move(d), true
}

// Contains implements World: every point is in the plane.
func (OpenPlane) Contains(grid.Point) bool { return true }

// Validate implements World.
func (OpenPlane) Validate() error { return nil }

// HalfPlane restricts the world to the closed upper half plane y ≥ 0.
// Moves that would cross the boundary are blocked.
type HalfPlane struct{}

// Name implements World.
func (HalfPlane) Name() string { return "half-plane" }

// Resolve implements World.
func (HalfPlane) Resolve(pos grid.Point, d grid.Direction) (grid.Point, bool) {
	next := pos.Move(d)
	if next.Y < 0 {
		return pos, false
	}
	return next, true
}

// Contains implements World.
func (HalfPlane) Contains(p grid.Point) bool { return p.Y >= 0 }

// Validate implements World.
func (HalfPlane) Validate() error { return nil }

// Quadrant restricts the world to the closed first quadrant x ≥ 0, y ≥ 0.
type Quadrant struct{}

// Name implements World.
func (Quadrant) Name() string { return "quadrant" }

// Resolve implements World.
func (Quadrant) Resolve(pos grid.Point, d grid.Direction) (grid.Point, bool) {
	next := pos.Move(d)
	if next.X < 0 || next.Y < 0 {
		return pos, false
	}
	return next, true
}

// Contains implements World.
func (Quadrant) Contains(p grid.Point) bool { return p.X >= 0 && p.Y >= 0 }

// Validate implements World.
func (Quadrant) Validate() error { return nil }

// Torus is the L×L torus: positions live in [0, L)² and moves wrap around.
// The agents' origin (0,0) is a torus position, so no translation is
// needed. Every move is legal.
type Torus struct {
	// L is the side length (at least 1).
	L int64
}

// Name implements World.
func (t Torus) Name() string { return fmt.Sprintf("torus-%d", t.L) }

// Resolve implements World: the move wraps modulo L on both axes.
func (t Torus) Resolve(pos grid.Point, d grid.Direction) (grid.Point, bool) {
	delta := d.Delta()
	return grid.Point{
		X: grid.Mod(pos.X+delta.X, t.L),
		Y: grid.Mod(pos.Y+delta.Y, t.L),
	}, true
}

// Contains implements World.
func (t Torus) Contains(p grid.Point) bool {
	return p.X >= 0 && p.X < t.L && p.Y >= 0 && p.Y < t.L
}

// Validate implements World.
func (t Torus) Validate() error {
	if t.L < 1 {
		return fmt.Errorf("sim: torus side %d must be at least 1", t.L)
	}
	return nil
}

// obstacleIndexMaxCells caps the total rasterized area NewObstacles will
// index: 2²² cells is 4 MB of leaf tiles in the worst case, far beyond any
// scenario preset, while a handful of enormous rectangles (cheap to scan
// linearly, ruinous to rasterize) stay on the linear path.
const obstacleIndexMaxCells = 1 << 22

// Obstacles is the open plane minus a set of axis-aligned rectangles.
// Moves into a blocked cell are blocked; the agent stays in place.
//
// A struct literal resolves moves by scanning Blocked linearly — exact but
// O(#rects) per step. NewObstacles additionally rasterizes the rectangles
// into a frozen spatial index (spatial.FromRects), making membership a
// table lookup regardless of the rectangle count — and one the rounds
// engine's kernel inlines; the two constructions are
// observationally identical.
type Obstacles struct {
	// Blocked lists the obstacle rectangles (inclusive corners). None may
	// contain the origin.
	Blocked []grid.Rect

	// idx, when non-nil, holds every blocked cell (see NewObstacles).
	// Resolve/Contains run on many goroutines at once, which is safe
	// because lookups never mutate the index.
	idx *spatial.Index
}

// NewObstacles builds an Obstacles world whose membership queries run
// against a rasterized spatial index when the total blocked area is at most
// obstacleIndexMaxCells (larger or malformed inputs fall back to the
// linear scan; Validate still reports malformed rectangles).
func NewObstacles(blocked ...grid.Rect) Obstacles {
	o := Obstacles{Blocked: blocked}
	rects := make([][4]int64, len(blocked))
	for i, r := range blocked {
		rects[i] = [4]int64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
	}
	o.idx = spatial.FromRects(rects, obstacleIndexMaxCells)
	return o
}

// Name implements World.
func (o Obstacles) Name() string { return fmt.Sprintf("obstacles-%d", len(o.Blocked)) }

// blocked reports whether p lies inside an obstacle.
func (o Obstacles) blocked(p grid.Point) bool {
	if o.idx != nil {
		return o.idx.Contains(p.X, p.Y)
	}
	for _, r := range o.Blocked {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Resolve implements World.
func (o Obstacles) Resolve(pos grid.Point, d grid.Direction) (grid.Point, bool) {
	next := pos.Move(d)
	if o.blocked(next) {
		return pos, false
	}
	return next, true
}

// Contains implements World.
func (o Obstacles) Contains(p grid.Point) bool { return !o.blocked(p) }

// Validate implements World.
func (o Obstacles) Validate() error {
	for i, r := range o.Blocked {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("sim: obstacle %d: %w", i, err)
		}
		if r.Contains(grid.Origin) {
			return fmt.Errorf("sim: obstacle %d (%v) covers the origin", i, r)
		}
	}
	return nil
}

// sectorWalls reports the walls of a static sector world: x reports that
// moves to x < 0 are blocked (Quadrant), y that moves to y < 0 are
// (Quadrant, HalfPlane). ok is true for those two worlds and for the nil
// open plane, whose clearance is unbounded; every other world has no
// clearance rule and resolves its moves one at a time.
func sectorWalls(w World) (x, y, ok bool) {
	switch w.(type) {
	case nil:
		return false, false, true
	case Quadrant:
		return true, true, true
	case HalfPlane:
		return false, true, true
	}
	return false, false, false
}

// validateWorld checks w (nil means the open plane and is always valid) and
// that every target is a position of it.
func validateWorld(w World, targets []grid.Point) error {
	if w == nil {
		return nil
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if !w.Contains(grid.Origin) {
		return fmt.Errorf("sim: world %s does not contain the origin", w.Name())
	}
	for _, t := range targets {
		if !w.Contains(t) {
			return fmt.Errorf("sim: target %v is not a position of world %s", t, w.Name())
		}
	}
	return nil
}

// targetSetMapThreshold is the size above which TargetSet switches from a
// linear scan to a spatial-index lookup.
const targetSetMapThreshold = 8

// TargetSet is the set of target positions of one search instance. Small
// sets (the common case: one target) are scanned linearly, matching the
// single-comparison cost of the pre-scenario engine; larger sets use a
// frozen sparse spatial index, which answers Hit with a table lookup and
// nearest-target queries in time proportional to the tile distance to the
// answer. The zero value is the empty set (a pure coverage run).
type TargetSet struct {
	pts []grid.Point
	idx *spatial.Index // non-nil only above targetSetMapThreshold
}

// NewTargetSet builds a target set from the given points (duplicates are
// kept in Points but hit detection is unaffected). Sets above
// targetSetMapThreshold get a frozen index (spatial.FromCells).
func NewTargetSet(pts ...grid.Point) TargetSet {
	t := TargetSet{pts: pts}
	if len(pts) > targetSetMapThreshold {
		cells := make([][2]int64, len(pts))
		for i, p := range pts {
			cells[i] = [2]int64{p.X, p.Y}
		}
		t.idx = spatial.FromCells(cells)
	}
	return t
}

// Hit reports whether p is a target. It is safe to call from many
// goroutines at once (index lookups never mutate).
func (t TargetSet) Hit(p grid.Point) bool {
	if t.idx != nil {
		return t.idx.Contains(p.X, p.Y)
	}
	for _, q := range t.pts {
		if q == p {
			return true
		}
	}
	return false
}

// Nearest returns the target closest to p in max-norm and its distance,
// breaking distance ties by smaller Y, then smaller X (the same order on
// the linear and indexed paths). ok is false for the empty set.
func (t TargetSet) Nearest(p grid.Point) (q grid.Point, dist int64, ok bool) {
	if len(t.pts) == 0 {
		return grid.Point{}, 0, false
	}
	if t.idx != nil {
		nx, ny, _ := t.idx.Nearest(p.X, p.Y)
		q = grid.Point{X: nx, Y: ny}
		return q, q.Sub(p).Norm(), true
	}
	dist = -1
	for _, c := range t.pts {
		d := c.Sub(p).Norm()
		if dist < 0 || d < dist || (d == dist && (c.Y < q.Y || (c.Y == q.Y && c.X < q.X))) {
			q, dist = c, d
		}
	}
	return q, dist, true
}

// ahead returns the distance from p to the nearest target on the open ray
// from p in direction d, or MaxUint64 when none lies on it. It scans the
// points linearly; callers use it only for unindexed sets.
func (t TargetSet) ahead(p grid.Point, d grid.Direction) uint64 {
	dist := uint64(math.MaxUint64)
	delta := d.Delta()
	for _, q := range t.pts {
		r := q.Sub(p)
		// Along the ray r = s·delta for some s ≥ 1: the cross term vanishes
		// and the projection is positive.
		if r.X*delta.Y != r.Y*delta.X {
			continue
		}
		if s := r.X*delta.X + r.Y*delta.Y; s > 0 && uint64(s) < dist {
			dist = uint64(s)
		}
	}
	return dist
}

// Empty reports whether the set has no targets.
func (t TargetSet) Empty() bool { return len(t.pts) == 0 }

// Len returns the number of target points.
func (t TargetSet) Len() int { return len(t.pts) }

// Points returns the target points (the caller must not mutate the slice).
func (t TargetSet) Points() []grid.Point { return t.pts }

// mergeTargets folds the legacy single-target configuration into the
// multi-target list: the result is Targets plus (Target if HasTarget).
func mergeTargets(target grid.Point, hasTarget bool, targets []grid.Point) TargetSet {
	if !hasTarget {
		return NewTargetSet(targets...)
	}
	if len(targets) == 0 {
		return NewTargetSet(target)
	}
	merged := make([]grid.Point, 0, len(targets)+1)
	merged = append(merged, targets...)
	merged = append(merged, target)
	return NewTargetSet(merged...)
}

// CrashPolicy selects how crash faults pick their victims.
type CrashPolicy uint8

const (
	// CrashUniform is the oblivious model: every active agent flips the
	// same independent CrashProb coin at each opportunity to act.
	CrashUniform CrashPolicy = iota
	// CrashNearest is the budgeted adaptive adversary: at every
	// CrashEvery-th round it fires with probability CrashProb and, when it
	// fires, crashes the live agent currently nearest a target (max-norm,
	// ties to the lowest agent id), until CrashBudget agents are down. It
	// draws from its own substream of the fault stream, so survivors'
	// trajectories stay byte-identical to the no-fault run. Only the
	// synchronous rounds engine supports it — the adversary needs the
	// joint swarm state, which the asynchronous engine never materializes.
	CrashNearest
)

// FaultModel injects agent failures into a run. The zero value disables all
// faults and leaves the engines' behaviour (and random streams) untouched.
// Fault randomness is drawn from a dedicated substream, never from the
// agents' walk streams, so enabling faults does not change the surviving
// agents' trajectories.
type FaultModel struct {
	// CrashProb is the probability that an active agent permanently fails
	// at each opportunity to act: per synchronous round in RunRounds, per
	// attempted move in the asynchronous engine. A crashed agent stops
	// where it stands and can no longer find targets. Under CrashNearest
	// it is instead the adversary's per-opportunity firing probability.
	CrashProb float64
	// MaxStartDelay staggers activation ("delayed start"): each agent
	// begins acting only after an idle prefix drawn uniformly from
	// [0, MaxStartDelay] rounds (synchronous engine) or Markov steps
	// (asynchronous engine, where the idle prefix is charged to the
	// agent's step count).
	MaxStartDelay uint64
	// Policy selects the crash model (zero value: oblivious uniform).
	Policy CrashPolicy
	// CrashBudget is the adaptive adversary's total kill budget (required
	// positive under CrashNearest, ignored otherwise).
	CrashBudget int
	// CrashEvery is the adaptive adversary's opportunity spacing: it may
	// act at the end of every round divisible by CrashEvery (required
	// positive under CrashNearest, ignored otherwise).
	CrashEvery uint64
}

// Enabled reports whether the model injects any faults.
func (f FaultModel) Enabled() bool {
	return f.CrashProb > 0 || f.MaxStartDelay > 0 ||
		(f.Policy == CrashNearest && f.CrashBudget > 0)
}

// Adaptive reports whether the model runs the budgeted adaptive adversary.
func (f FaultModel) Adaptive() bool { return f.Policy == CrashNearest && f.CrashBudget > 0 }

// Validate checks the model's parameters.
func (f FaultModel) Validate() error {
	if math.IsNaN(f.CrashProb) || f.CrashProb < 0 || f.CrashProb > 1 {
		return fmt.Errorf("sim: crash probability %v out of [0, 1]", f.CrashProb)
	}
	if f.MaxStartDelay > 1<<62 {
		return fmt.Errorf("sim: start delay %d is unreasonably large", f.MaxStartDelay)
	}
	switch f.Policy {
	case CrashUniform:
		if f.CrashBudget != 0 || f.CrashEvery != 0 {
			return fmt.Errorf("sim: CrashBudget/CrashEvery require the CrashNearest policy")
		}
	case CrashNearest:
		if f.CrashBudget < 1 {
			return fmt.Errorf("sim: adaptive crash policy needs a positive CrashBudget, got %d", f.CrashBudget)
		}
		if f.CrashEvery < 1 {
			return fmt.Errorf("sim: adaptive crash policy needs a positive CrashEvery, got %d", f.CrashEvery)
		}
	default:
		return fmt.Errorf("sim: unknown crash policy %d", f.Policy)
	}
	return nil
}

// crashThreshold converts CrashProb to the fixed-point threshold compared
// against one uniform 64-bit draw (crash when draw < threshold).
func (f FaultModel) crashThreshold() uint64 {
	if f.CrashProb <= 0 {
		return 0
	}
	if f.CrashProb >= 1 {
		return math.MaxUint64
	}
	v := math.Round(f.CrashProb * 0x1p64)
	if v >= 0x1p64 {
		return math.MaxUint64
	}
	return uint64(v)
}

// startDelay draws an agent's activation delay in [0, MaxStartDelay] from
// its fault stream. It consumes exactly one draw when delays are enabled
// and none otherwise.
func (f FaultModel) startDelay(src *rng.Source) uint64 {
	if f.MaxStartDelay == 0 {
		return 0
	}
	return uint64(src.Intn(int64(f.MaxStartDelay) + 1))
}

// faultStreamTag derives the fault substream of a run's root source. Agent
// walk streams are derived with the agent id (small integers), the target
// stream with 1<<62; this tag keeps fault randomness disjoint from both.
const faultStreamTag = uint64(1) << 61

// adversaryStreamTag derives the adaptive adversary's substream of the
// fault root. Per-agent fault streams are derived with the agent id (small
// integers); this tag keeps the adversary's draws disjoint from them, so
// turning the adversary on or off never changes which agents crash under
// the oblivious model — and never touches walk streams at all.
const adversaryStreamTag = uint64(1) << 60
