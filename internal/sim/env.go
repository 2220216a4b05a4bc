// Package sim is the execution engine for the ANTS search problem: it runs
// n independent agents (each a Program or a compiled automaton) against a
// target placement and reports the paper's performance metrics M_moves and
// M_steps (minimum over agents of the moves/steps until the target is
// found).
//
// Because agents are non-communicating and identical, the first agent to
// find the target is simply the one whose independent run has the smallest
// hitting count; the engine therefore simulates agents independently and in
// parallel, with per-agent deterministic substreams derived from a root
// seed.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/rng"
)

// ErrBudget is the sentinel returned by Env methods' error value when an
// agent exhausts its move or step budget. Programs should stop promptly
// when they observe it.
var ErrBudget = errors.New("sim: move budget exhausted")

// ErrCrashed is returned by Env.Move when the fault model crashes the
// agent. It wraps ErrBudget, so every program that already treats budget
// exhaustion as a graceful stop (errors.Is(err, ErrBudget)) handles crashes
// without modification: a crash is the agent's remaining budget going to
// zero.
var ErrCrashed = fmt.Errorf("sim: agent crashed (fault injection): %w", ErrBudget)

// Env is the interface between an agent program and the world. It tracks
// the agent's position, counts moves and steps, detects the targets, and
// enforces the move budget and fault model. An Env is used by a single
// agent; it is not safe for concurrent use.
type Env struct {
	targets TargetSet
	world   World  // nil = open plane (an explicit OpenPlane{} maps to nil)
	budget  uint64 // max moves (grid actions); 0 = unlimited
	src     *rng.Source

	// Dynamic schedules (nil = static run). The agent's clock is its own
	// step count: its k-th Markov step happens in round k, so the schedule
	// is queried at round steps+1 and the answer cached through the
	// returned epoch end.
	dynWorld     DynamicWorld
	dynTargets   TargetSchedule
	worldUntil   uint64 // last round the cached world is valid for
	targetsUntil uint64 // last round the cached target set is valid for

	crashThresh uint64 // fixed-point per-move crash probability; 0 = off
	faultSrc    *rng.Source

	pos     grid.Point
	moves   uint64
	steps   uint64
	found   bool
	foundAt uint64 // move count at the moment of discovery
	crashed bool
	visited *grid.VisitSet
	path    []grid.Point // recorded trajectory, nil unless requested
	hook    EnvHook

	// stepwise and blockwise are set when Straight and Free must vouch for
	// one move at a time. Both are set when every move needs its own
	// checks (a schedule, faults, a hook, a recorded path, or a world with
	// no clearance rule); stepwise also for an indexed target set (ahead
	// scans the points linearly), blockwise also for tracked visits (Shift
	// never materialises a block's cells).
	stepwise, blockwise bool
	// wallX and wallY mark the static sector world's walls: moves to
	// x < 0 (Quadrant) and to y < 0 (Quadrant, HalfPlane) are blocked.
	wallX, wallY bool
}

// EnvConfig configures an agent environment.
type EnvConfig struct {
	// Target is the point to find; HasTarget false means a pure coverage
	// run (agents never "find" anything). Target and Targets combine into
	// one target set.
	Target    grid.Point
	HasTarget bool
	// Targets lists additional target points (multi-target scenarios). The
	// agent is done as soon as it steps on any of them.
	Targets []grid.Point
	// World is the topology moves resolve against. Nil and OpenPlane{}
	// both mean the open plane, whose moves need no legality checks;
	// restricted worlds block or wrap moves as described on the World
	// interface. The environment does not validate the world — engines
	// do that once per run via their configs.
	World World
	// DynamicWorld, when non-nil, makes the topology time-varying: the
	// world in effect for each of the agent's steps comes from the
	// schedule, clocked by the agent's own step count. Mutually exclusive
	// with World (engines validate the exclusion).
	DynamicWorld DynamicWorld
	// DynamicTargets, when non-nil, makes the target set time-varying,
	// clocked like DynamicWorld. Mutually exclusive with Target/Targets.
	// In addition to the per-move hit test, non-moving steps (CountStep,
	// ReturnToOrigin) re-test the agent's position so a target arriving on
	// a waiting agent is detected.
	DynamicTargets TargetSchedule
	// MoveBudget caps the number of grid moves; 0 means unlimited. Blocked
	// moves (World legality) count against it.
	MoveBudget uint64
	// Src is the agent's private random source.
	Src *rng.Source
	// CrashProb is the per-move crash probability of the fault model; 0
	// disables crash faults. Requires FaultSrc when positive.
	CrashProb float64
	// FaultSrc is the dedicated random source for fault draws. Keeping it
	// separate from Src guarantees fault injection never perturbs the
	// agent's walk stream.
	FaultSrc *rng.Source
	// StartDelaySteps is the agent's resolved activation delay: it is
	// charged to the step count up front (the agent spent that many rounds
	// idle before acting). Engines draw it from the FaultModel.
	StartDelaySteps uint64
	// TrackVisits, when non-nil, records every visited cell (including the
	// origin) into the given set. Used by coverage experiments.
	TrackVisits *grid.VisitSet
	// RecordPath, when true, appends every position (starting at the
	// origin, including oracle returns) to the trajectory returned by
	// Path. Intended for visualization of single agents; it grows without
	// bound, so leave it off in large sweeps.
	RecordPath bool
	// Hook, when non-nil, observes the agent's grid events (used by the
	// trace package). Hook methods run synchronously on the agent's
	// simulation path; keep them cheap.
	Hook EnvHook
}

// EnvHook observes one agent's grid events.
type EnvHook interface {
	// OnMove fires after each completed move.
	OnMove(pos grid.Point, moveIndex uint64)
	// OnReturn fires after each oracle return to the origin.
	OnReturn()
	// OnFound fires once, when the agent steps on the target.
	OnFound(pos grid.Point, moveIndex uint64)
}

// NewEnv creates an environment. The agent starts at the origin; if the
// target is the origin it is found immediately at zero moves.
func NewEnv(cfg EnvConfig) *Env {
	e := &Env{}
	e.Reset(cfg)
	return e
}

// Reset re-initializes e for a fresh agent with the given configuration,
// reusing e's allocations (notably the recorded-path backing array). The
// worker pool calls it once per agent so the engine's steady state is
// allocation-free.
func (e *Env) Reset(cfg EnvConfig) {
	e.reset(cfg, mergeTargets(cfg.Target, cfg.HasTarget, cfg.Targets))
}

// reset is Reset with the static target set already merged from cfg, so
// an engine running many agents against one configuration merges (and
// indexes) it once per run rather than once per agent.
func (e *Env) reset(cfg EnvConfig, targets TargetSet) {
	path := e.path
	world := cfg.World
	if _, open := world.(OpenPlane); open {
		world = nil // the open plane has one representation
	}
	*e = Env{
		targets:     targets,
		world:       world,
		budget:      cfg.MoveBudget,
		src:         cfg.Src,
		dynWorld:    cfg.DynamicWorld,
		dynTargets:  cfg.DynamicTargets,
		crashThresh: FaultModel{CrashProb: cfg.CrashProb}.crashThreshold(),
		faultSrc:    cfg.FaultSrc,
		steps:       cfg.StartDelaySteps,
		visited:     cfg.TrackVisits,
		hook:        cfg.Hook,
	}
	if e.visited != nil {
		e.visited.Visit(grid.Origin)
	}
	if cfg.RecordPath {
		e.path = append(path[:0], grid.Origin)
	}
	var clearance bool
	e.wallX, e.wallY, clearance = sectorWalls(world)
	perMove := !clearance || e.dynWorld != nil || e.dynTargets != nil ||
		e.crashThresh > 0 || e.hook != nil || e.path != nil
	e.stepwise = perMove || e.targets.idx != nil
	e.blockwise = perMove || e.visited != nil
	// The untils start at zero, so this first sync fetches the schedules'
	// state for the agent's first acting round (StartDelaySteps+1).
	e.syncDynamics()
	if e.targets.Hit(grid.Origin) {
		e.found = true
	}
}

// syncDynamics refreshes the cached world and target set when the agent's
// clock has moved past the cached epoch. Static runs (both schedules nil)
// never enter either branch.
func (e *Env) syncDynamics() {
	if e.dynWorld != nil {
		if r := e.steps + 1; r > e.worldUntil {
			e.world, e.worldUntil = e.dynWorld.Tick(r)
		}
	}
	if e.dynTargets != nil {
		if r := e.steps + 1; r > e.targetsUntil {
			e.targets, e.targetsUntil = e.dynTargets.Targets(r)
		}
	}
}

// Path returns the recorded trajectory (nil unless RecordPath was set).
// The returned slice is a copy.
func (e *Env) Path() []grid.Point {
	if e.path == nil {
		return nil
	}
	return append([]grid.Point(nil), e.path...)
}

// Src returns the agent's random source (programs build their coins on it).
func (e *Env) Src() *rng.Source { return e.src }

// Pos returns the agent's current position.
func (e *Env) Pos() grid.Point { return e.pos }

// Moves returns the number of grid moves performed so far.
func (e *Env) Moves() uint64 { return e.moves }

// Steps returns the number of Markov-chain steps recorded via CountStep
// plus one per move.
func (e *Env) Steps() uint64 { return e.steps }

// Found reports whether the agent has stepped on a target.
func (e *Env) Found() bool { return e.found }

// FoundAt returns the move count at which the target was found; it is
// meaningful only when Found is true.
func (e *Env) FoundAt() uint64 { return e.foundAt }

// Crashed reports whether the fault model has crashed the agent.
func (e *Env) Crashed() bool { return e.crashed }

// TargetDist returns the max-norm distance from the agent's current
// position to the nearest target, or -1 when the run has no targets. Large
// target sets answer via the spatial index in time proportional to the tile
// distance to the nearest target.
func (e *Env) TargetDist() int64 {
	_, d, ok := e.targets.Nearest(e.pos)
	if !ok {
		return -1
	}
	return d
}

// Done reports whether the agent should stop: it found a target, crashed,
// or ran out of budget.
func (e *Env) Done() bool {
	return e.found || e.crashed || (e.budget > 0 && e.moves >= e.budget)
}

// CountStep records a non-moving Markov-chain step (a "none" state, or a
// local coin flip the caller wants accounted as a step). Under a dynamic
// target schedule the agent's position is re-tested, so a target that
// drifts onto a waiting agent is found.
func (e *Env) CountStep() {
	e.syncDynamics()
	e.steps++
	e.dynamicHit()
}

// dynamicHit re-tests the agent's current position against the (already
// synced) target set. It is a no-op for static runs: static targets can
// only be hit by arriving, which Move already tests.
func (e *Env) dynamicHit() {
	if e.dynTargets == nil || e.found || e.crashed {
		return
	}
	if e.targets.Hit(e.pos) {
		e.found = true
		e.foundAt = e.moves
		if e.hook != nil {
			e.hook.OnFound(e.pos, e.moves)
		}
	}
}

// Move moves the agent one cell in direction d. It returns ErrBudget when
// the move budget was already exhausted (the move is not performed) and
// ErrCrashed when the fault model crashes the agent on this move attempt.
// A move the world blocks keeps the agent in place but is still charged
// against the budget (a bumped wall is an action). Discovery of a target
// is recorded but does not stop the agent; callers check Done.
func (e *Env) Move(d grid.Direction) error {
	if e.budget > 0 && e.moves >= e.budget {
		return ErrBudget
	}
	if e.crashed {
		return ErrCrashed
	}
	if e.crashThresh > 0 && e.faultSrc.Uint64() < e.crashThresh {
		e.crashed = true
		return ErrCrashed
	}
	e.syncDynamics()
	if e.world == nil {
		e.pos = e.pos.Move(d)
	} else {
		e.pos, _ = e.world.Resolve(e.pos, d)
	}
	e.moves++
	e.steps++
	if e.visited != nil {
		e.visited.Visit(e.pos)
	}
	if e.path != nil {
		e.path = append(e.path, e.pos)
	}
	if e.hook != nil {
		e.hook.OnMove(e.pos, e.moves)
	}
	if !e.found && e.targets.Hit(e.pos) {
		e.found = true
		e.foundAt = e.moves
		if e.hook != nil {
			e.hook.OnFound(e.pos, e.moves)
		}
	}
	return nil
}

// Straight returns how many moves in direction d Advance may apply at
// once: no cell before the last of them can make the agent done. That is
// the smaller of the remaining budget, the distance along the ray to the
// nearest target ahead and, in a sector world (Quadrant, HalfPlane), the
// distance to the wall ahead, or MaxUint64 when none applies. An agent
// pressed against the wall ahead makes a blocked run: it stays put, so
// only the budget bounds the run. Straight returns 1 whenever each move
// needs its own checks — any other world, a dynamic schedule, crash
// faults, a hook, a recorded path, an indexed target set — and when the
// agent is already done. It consumes no randomness, so a caller may size
// its random draws by it without changing its stream.
func (e *Env) Straight(d grid.Direction) uint64 {
	if e.stepwise || e.found || e.crashed {
		return 1
	}
	return e.straight(d)
}

// straight is Straight's bound, kept out of line so the checks above
// inline into every caller. An exhausted budget gives 1 as well.
func (e *Env) straight(d grid.Direction) uint64 {
	run := e.budgetLeft()
	if e.world != nil {
		wall := e.wallAhead(d)
		if wall == 0 {
			return run // a blocked run: the agent stays where it is
		}
		run = min(run, wall)
	}
	return min(run, e.targets.ahead(e.pos, d))
}

// budgetLeft returns the moves left in the budget, at least 1 (an
// exhausted budget leaves the single Move that reports it), or MaxUint64
// when the budget is unlimited.
func (e *Env) budgetLeft() uint64 {
	if e.budget > 0 {
		return max(e.budget-e.moves, 1)
	}
	return math.MaxUint64
}

// wallAhead returns how many moves in direction d the sector world
// performs before blocking one: the agent's x for Left against the
// Quadrant's wall, its y for Down against either sector's floor, and
// MaxUint64 for every other ray.
func (e *Env) wallAhead(d grid.Direction) uint64 {
	switch {
	case d == grid.Left && e.wallX:
		return uint64(e.pos.X)
	case d == grid.Down && e.wallY:
		return uint64(e.pos.Y)
	}
	return math.MaxUint64
}

// Advance moves the agent n cells in direction d. It behaves exactly like
// n successive Move(d) calls, each followed by a Done check: it stops at
// the first move that finds a target, crashes or exhausts the budget. A
// stretch Straight vouches for costs O(1) (one loop over its cells when
// visits are tracked), blocked runs included; otherwise each move goes
// through Move.
func (e *Env) Advance(d grid.Direction, n uint64) {
	for n > 0 {
		m := min(n, e.Straight(d))
		if m == 1 {
			if e.Move(d) != nil || e.Done() {
				return
			}
			n--
			continue
		}
		delta := d.Delta()
		if e.world != nil && e.wallAhead(d) == 0 {
			delta = grid.Point{} // blocked: each move is charged in place
		}
		if e.visited != nil {
			p := e.pos
			for i := uint64(0); i < m; i++ {
				p = p.Add(delta)
				e.visited.Visit(p)
			}
		}
		e.pos.X += delta.X * int64(m)
		e.pos.Y += delta.Y * int64(m)
		e.moves += m
		e.steps += m
		// Straight vouched for every cell before the last one.
		if e.targets.Hit(e.pos) {
			e.found = true
			e.foundAt = e.moves
		}
		if e.Done() {
			return
		}
		n -= m
	}
}

// Free returns how many moves, in any directions, Shift may apply at once:
// none of them can find a target or be blocked by a wall, and only the
// last can make the agent done, by exhausting the budget. That is the
// smallest of the remaining budget, the max-norm distance to the nearest
// target minus 1 and, in a sector world, the distance to its walls (x and
// y in the Quadrant, y in the half plane: that many moves in any
// directions are all performed), or MaxUint64 when none applies. Free
// returns 1 — the caller makes that move with Move — whenever a bound falls
// below 2, whenever each move needs its own checks (any other world, a
// dynamic schedule, crash faults, a hook, a recorded path, tracked visits)
// and when the agent is already done. Like Straight it consumes no
// randomness.
func (e *Env) Free() uint64 {
	if e.blockwise || e.found || e.crashed {
		return 1
	}
	return e.free()
}

// free is Free's bound, out of line like straight.
func (e *Env) free() uint64 {
	run := e.budgetLeft()
	if _, d, ok := e.targets.Nearest(e.pos); ok {
		run = min(run, uint64(max(d-1, 1)))
	}
	if e.wallX {
		run = min(run, uint64(max(e.pos.X, 1)))
	}
	if e.wallY {
		run = min(run, uint64(max(e.pos.Y, 1)))
	}
	return run
}

// Shift applies n moves whose net displacement is (dx, dy): the agent ends
// n moves and n steps later at pos + (dx, dy). n must be at most Free(),
// which guarantees that the per-move loop would make the same moves
// without reaching a target or a wall, so no cell is tested.
func (e *Env) Shift(dx, dy int64, n uint64) {
	e.pos.X += dx
	e.pos.Y += dy
	e.moves += n
	e.steps += n
}

// ReturnToOrigin teleports the agent to the origin. Per the paper's model
// the return path is provided by an oracle and its length is excluded from
// the move count.
func (e *Env) ReturnToOrigin() {
	e.syncDynamics()
	e.pos = grid.Origin
	e.steps++
	if e.path != nil {
		e.path = append(e.path, e.pos)
	}
	if e.hook != nil {
		e.hook.OnReturn()
	}
	e.dynamicHit()
}

// Program is an agent algorithm. Run executes the agent until env.Done()
// (target found or budget exhausted) and returns nil, or returns an error
// for genuine failures (invalid configuration). Run must be deterministic
// given env.Src().
type Program interface {
	Run(env *Env) error
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(env *Env) error

// Run implements Program.
func (f ProgramFunc) Run(env *Env) error { return f(env) }
