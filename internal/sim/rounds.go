package sim

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// This file implements the synchronous execution model of the paper's
// Section 2 ("a round of an execution consists of one transition of each
// agent"). The asynchronous engine in runner.go is equivalent for the
// M_moves/M_steps metrics because agents are independent, but the
// round-based engine additionally exposes the swarm's joint state over
// time to observers — the view the Section 4 arguments (and the coverage-
// growth experiment) are about.
//
// The engine runs on the machine's compiled form (see automata.Compile):
// agent state lives in flat parallel structure-of-arrays storage, each
// worker owns a contiguous stripe of agents plus its own VisitSet, and the
// worker pool is persistent — goroutines are created once per run and
// synchronized with a channel barrier, not spawned per round.
//
// Rounds are executed in segments. Because agents are independent between
// synchronization points (observer rounds, checkpoints, the StopOnFound
// horizon), the engine is free to step one agent through a whole run of
// rounds before touching the next: agent-major order keeps the agent's
// source, state and position in registers across the inner round loop and
// pays the worker barrier once per segment instead of once per round.
// The trajectories are bit-identical to round-major order — each agent
// consumes the same stream in the same order — and the first-found round is
// the minimum over agents of their personal first-hit round, which segments
// compute exactly. A run with an observer degenerates to one-round
// segments, which is precisely the old behaviour, and so does a
// StopOnFound run whose agent states stay observable (tracking, faults).
// A StopOnFound run that exposes only the first-found round runs
// speculative segments that grow with the round (specSegment). Visit
// stripes are merged into the master set by word-OR only at checkpoints
// and at the end of the run.

// AgentState is one agent's snapshot at the end of a round.
type AgentState struct {
	Pos   grid.Point
	State int // Markov-chain state index
	Found bool
	// Crashed reports that the fault model permanently stopped this agent.
	Crashed bool
}

// RoundObserver receives the swarm snapshot after each round. Observe runs
// on the caller's goroutine between rounds; it must not retain the agents
// slice (it is reused).
type RoundObserver interface {
	Observe(round uint64, agents []AgentState)
}

// RoundObserverFunc adapts a function to RoundObserver.
type RoundObserverFunc func(round uint64, agents []AgentState)

// Observe implements RoundObserver.
func (f RoundObserverFunc) Observe(round uint64, agents []AgentState) { f(round, agents) }

// RoundsConfig parameterizes a synchronous run.
type RoundsConfig struct {
	// Machine is the agents' automaton (all agents are identical).
	Machine *automata.Machine
	// Machines, when non-empty, runs a heterogeneous colony: agent i
	// executes Machines[i % len(Machines)], so the families interleave
	// round-robin across agent ids. At most 255 families. Takes precedence
	// over Machine.
	Machines []*automata.Machine
	// NumAgents is the swarm size n, at most MaxAgents.
	NumAgents int
	// Rounds is the number of synchronous rounds to execute.
	Rounds uint64
	// Target is found when any agent's position equals it.
	Target    grid.Point
	HasTarget bool
	// Targets lists additional target points (multi-target scenarios);
	// they combine with Target/HasTarget into one target set.
	Targets []grid.Point
	// World is the topology agents move on. Nil and OpenPlane{} both mean
	// the open plane and run the same kernel loops. Targets must be
	// positions of the world.
	World World
	// DynamicWorld, when non-nil, makes the topology time-varying: the
	// engine queries the schedule at each segment boundary and cuts
	// segments at epoch ends, so the batched kernel never straddles a
	// world change. Mutually exclusive with World.
	DynamicWorld DynamicWorld
	// DynamicTargets, when non-nil, makes the target set time-varying,
	// segmented like DynamicWorld. Mutually exclusive with
	// Target/HasTarget/Targets.
	DynamicTargets TargetSchedule
	// Faults is the agent fault model (zero value: no faults). Crash draws
	// and start delays come from a substream disjoint from the agents'
	// walk streams, so enabling faults never changes surviving agents'
	// transition sequences. The CrashNearest policy (the budgeted adaptive
	// adversary) runs between segments on the engine's coordinating
	// goroutine, so its behaviour is independent of the worker count.
	Faults FaultModel
	// StopOnFound ends the run at the end of the round in which the
	// target is first found.
	StopOnFound bool
	// TrackRadius, when positive, maintains the union visit set.
	TrackRadius int64
	// SparseVisits forces the sparse tile-index backing for the visit sets
	// regardless of TrackRadius (large radii select it automatically). The
	// two backings are observationally identical; the flag exists for the
	// oracle-equality tests and sparse-path benchmarks.
	SparseVisits bool
	// Workers bounds per-round stepping concurrency. 0 auto-sizes: up to
	// GOMAXPROCS workers, but never so many that a worker owns fewer than
	// minAgentsPerWorker agents (small swarms run without synchronization).
	Workers int
	// Checkpoints lists rounds (strictly increasing, within [1, Rounds])
	// at which the engine merges the per-worker visit stripes and calls
	// CheckpointFn with the merged set. Requires TrackRadius > 0 and a
	// non-nil CheckpointFn, and is incompatible with StopOnFound (an early
	// stop would silently skip the remaining checkpoints).
	Checkpoints []uint64
	// CheckpointFn receives the merged visit set at each checkpoint round.
	// It runs on the caller's goroutine and must not retain the set.
	CheckpointFn func(round uint64, visited *grid.VisitSet)
}

// RoundsResult is the outcome of a synchronous run.
type RoundsResult struct {
	// Found reports whether any agent reached the target.
	Found bool
	// FoundRound is the 1-based round at which the target was first
	// reached (0 when not found) — the metric of Theorem 4.1.
	FoundRound uint64
	// RoundsRun is the length of the run: the horizon (Rounds), or with
	// StopOnFound the round the run stopped at — FoundRound when the
	// target was found during the run, round 1 for an origin target. It
	// counts rounds of the model's execution, not rounds the engine
	// stepped: a speculative StopOnFound run may step agents a few rounds
	// past the find (see DESIGN.md §3).
	RoundsRun uint64
	// Crashed is the number of agents the fault model crashed.
	Crashed int
	// Visited is the union visit set when tracking was requested.
	Visited *grid.VisitSet
}

// minAgentsPerWorker is the auto-sizing floor: below this many agents per
// worker, the per-round barrier costs more than the parallelism buys.
const minAgentsPerWorker = 512

// roundWorkers picks the worker count for a swarm of n agents. An explicit
// request is honored (capped at n); 0 auto-sizes.
func roundWorkers(requested, n int) int {
	if requested > 0 {
		if requested > n {
			return n
		}
		return requested
	}
	w := runtime.GOMAXPROCS(0)
	if byLoad := n / minAgentsPerWorker; w > byLoad {
		w = byLoad
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newTrackSet builds one visit set of the run's tracking configuration.
func newTrackSet(r int64, sparse bool) *grid.VisitSet {
	if sparse {
		return grid.NewSparseVisitSet(r)
	}
	return grid.NewVisitSet(r)
}

// swarm is the flat compiled-execution state of a synchronous run: one slot
// per agent in parallel structure-of-arrays storage, stepped stripe-wise by
// the worker pool in agent-major segments by one kernel (segment). The
// open plane has one representation here, OpenPlane{} (a nil World in the
// config or from a schedule maps to it), so the kernel picks its inner
// loop from what it observes: the world, the target set and the crash
// threshold.
type swarm struct {
	c      *automata.CompiledMachine
	srcs   []rng.Source
	states []int32
	posX   []int64
	posY   []int64
	agents []AgentState

	// Heterogeneous colonies: agent i runs cs[famOf[i]]. Nil famOf means a
	// homogeneous swarm on c (the common case; the kernel's per-agent
	// lookup then compiles to a single register load).
	cs    []*automata.CompiledMachine
	famOf []uint8

	// Segment bounds [segR0, segR1], 1-based inclusive rounds; written by
	// the main goroutine before the barrier releases the workers.
	segR0, segR1 uint64

	// spec marks a speculative StopOnFound run (see specSegment): only
	// the first-found round is observable, so the kernel may stop each
	// agent at its stripe's earliest find so far.
	spec bool

	// The world and target set in effect for the current segment.
	world   World
	targets TargetSet

	// The fault model's state; the slices are nil when it is off.
	crashProb uint64 // fixed-point per-round crash threshold; 0 = off
	faultSrcs []rng.Source
	delays    []uint64 // idle-prefix rounds per agent
	crashed   []bool

	// Dynamic schedules (nil = static run). The coordinating goroutine
	// refreshes world/targets from them between segments; worldUntil and
	// targetsUntil are the last rounds the cached values are valid for.
	dynWorld     DynamicWorld
	dynTargets   TargetSchedule
	worldUntil   uint64
	targetsUntil uint64

	// adv is the budgeted adaptive adversary (nil when the policy is
	// oblivious). It acts between segments on the coordinating goroutine.
	adv *adversary
}

// adversary is the CrashNearest fault policy's run state: a budget of
// kills, an opportunity spacing, a firing threshold, and a private
// substream of the fault stream.
type adversary struct {
	src    rng.Source
	thresh uint64 // fixed-point firing probability
	budget int
	every  uint64
}

// nextOpportunity returns the first round ≥ round at which the adversary
// may act (rounds divisible by every).
func (a *adversary) nextOpportunity(round uint64) uint64 {
	return ((round + a.every - 1) / a.every) * a.every
}

// machineOf returns agent i's compiled machine.
func (s *swarm) machineOf(i int) *automata.CompiledMachine {
	if s.famOf != nil {
		return s.cs[s.famOf[i]]
	}
	return s.c
}

// syncDynamics refreshes the cached world and target set for the round
// about to run. It must be called only between segments (the workers are
// parked) and only advances when the cached epoch has expired, so a static
// schedule costs one interface call per run. A nil world, from the config
// or a schedule, becomes OpenPlane{}.
func (s *swarm) syncDynamics(round uint64) {
	if s.dynWorld != nil && round > s.worldUntil {
		s.world, s.worldUntil = s.dynWorld.Tick(round)
	}
	if s.world == nil {
		s.world = OpenPlane{}
	}
	if s.dynTargets != nil && round > s.targetsUntil {
		s.targets, s.targetsUntil = s.dynTargets.Targets(round)
	}
}

func newSwarm(cfg RoundsConfig, targets TargetSet, seed uint64) *swarm {
	n := cfg.NumAgents
	s := &swarm{
		srcs:       make([]rng.Source, n),
		states:     make([]int32, n),
		posX:       make([]int64, n),
		posY:       make([]int64, n),
		agents:     make([]AgentState, n),
		world:      cfg.World,
		targets:    targets,
		dynWorld:   cfg.DynamicWorld,
		dynTargets: cfg.DynamicTargets,
	}
	if len(cfg.Machines) > 0 {
		s.cs = make([]*automata.CompiledMachine, len(cfg.Machines))
		for f, m := range cfg.Machines {
			s.cs[f] = m.Compiled()
		}
		s.c = s.cs[0]
		s.famOf = make([]uint8, n)
		for i := 0; i < n; i++ {
			s.famOf[i] = uint8(i % len(cfg.Machines))
		}
	} else {
		s.c = cfg.Machine.Compiled()
	}
	root := rng.New(seed)
	for i := 0; i < n; i++ {
		root.DeriveInto(uint64(i), &s.srcs[i])
		start := int32(s.machineOf(i).Start())
		s.states[i] = start
		s.agents[i] = AgentState{Pos: grid.Origin, State: int(start)}
	}
	if cfg.Faults.Policy == CrashUniform {
		s.crashProb = cfg.Faults.crashThreshold()
	}
	if cfg.Faults.Enabled() {
		faultRoot := root.Derive(faultStreamTag)
		s.crashed = make([]bool, n)
		s.delays = make([]uint64, n)
		s.faultSrcs = make([]rng.Source, n)
		for i := 0; i < n; i++ {
			faultRoot.DeriveInto(uint64(i), &s.faultSrcs[i])
			s.delays[i] = cfg.Faults.startDelay(&s.faultSrcs[i])
		}
		if cfg.Faults.Adaptive() {
			s.adv = &adversary{
				thresh: cfg.Faults.crashThreshold(),
				budget: cfg.Faults.CrashBudget,
				every:  cfg.Faults.CrashEvery,
			}
			faultRoot.DeriveInto(adversaryStreamTag, &s.adv.src)
		}
	}
	return s
}

// adversaryStep runs one adaptive-adversary opportunity at the end of
// round. It consumes exactly one draw from the adversary's substream per
// opportunity while the budget lasts; when the draw fires, the live agent
// nearest a target (max-norm, ties to the lowest id) crashes and the
// budget shrinks. It runs on the coordinating goroutine between segments,
// so the outcome is independent of the worker count.
func (s *swarm) adversaryStep() {
	if s.adv.src.Uint64() >= s.adv.thresh {
		return
	}
	victim, best := -1, int64(-1)
	for i := range s.agents {
		if s.crashed[i] {
			continue
		}
		_, d, ok := s.targets.Nearest(s.agents[i].Pos)
		if !ok {
			return // no targets this round: nothing to aim at
		}
		if victim < 0 || d < best {
			victim, best = i, d
		}
	}
	if victim < 0 {
		return // everyone is already down
	}
	s.crashed[victim] = true
	s.agents[victim].Crashed = true
	s.adv.budget--
}

// visitBatchLen is the kernel's visit-buffer size: 256 points (4 KB per
// worker frame) amortizes the VisitBatch call without leaving L1. The
// kernel records visits only through this buffer, flushed when full and
// at the end of the segment; a stripe is a set, so one buffer may span
// agents.
const visitBatchLen = 256

// agentEnd is the last round agent work must cover in a segment ending at
// r1, given the stripe's earliest find so far. A speculative segment only
// needs to learn whether the remaining agents find the target before
// first: the run ends with this segment either way, and nothing else of
// theirs is observable.
func (s *swarm) agentEnd(r1, first uint64) uint64 {
	if s.spec && first != 0 {
		return first - 1
	}
	return r1
}

// kernel holds the forms of a segment's world and target set, picked
// once per segment, and the batch buffer of a worker's visit stripe (nil:
// the run does not track).
type kernel struct {
	open    bool           // the world is the open plane
	blocked *spatial.Table // frozen table of an indexed obstacle world
	hunting bool           // the target set is not empty
	one     bool           // the target set is the single point t
	t       grid.Point
	stripe  *grid.VisitSet
	bn      int
	buf     [visitBatchLen]grid.Point
}

// segment advances agents [lo, hi) through rounds [segR0, segR1],
// returning the earliest round at which an agent in the range newly
// reached a target (0: none did). A crashed agent never acts again and
// keeps its position; an agent still inside its start-delay prefix draws
// nothing at all, so the walk stream it eventually uses is the same one it
// would have used with no delay.
//
// The world and target set are constant over a segment, so the inner loop
// is picked once per agent-segment. On the open plane with no crash draws
// and at most one target, three call-free loops apply the compiled
// machine's packed grid action directly: coverage, tracked hunt and
// untracked (possibly speculative) hunt. Every other agent-segment runs
// runWorld, kept out of line so its state does not crowd these loops'
// registers.
func (s *swarm) segment(lo, hi int, stripe *grid.VisitSet) uint64 {
	k := kernel{stripe: stripe}
	_, k.open = s.world.(OpenPlane)
	if o, ok := s.world.(Obstacles); ok && o.idx != nil {
		k.blocked = o.idx.Table()
	}
	k.hunting = !s.targets.Empty()
	if k.one = s.targets.Len() == 1; k.one {
		k.t = s.targets.pts[0]
	}
	plain := k.open && s.crashProb == 0 && s.targets.Len() <= 1
	faults := s.crashed != nil
	hunting, tx, ty := k.hunting, k.t.X, k.t.Y
	c := s.c
	r0, r1 := s.segR0, s.segR1
	bn := 0
	var first uint64
	for i := lo; i < hi; i++ {
		start := r0
		if faults {
			if s.crashed[i] {
				continue
			}
			start = max(r0, s.delays[i]+1)
		}
		if s.famOf != nil {
			c = s.cs[s.famOf[i]]
		}
		if !plain {
			k.bn = bn
			first = s.runWorld(&k, i, c, start, first)
			bn = k.bn
			continue
		}
		src := &s.srcs[i]
		st := int(s.states[i])
		x, y := s.posX[i], s.posY[i]
		found := s.agents[i].Found
		switch {
		case stripe != nil && !hunting:
			// Coverage: no per-step target test.
			for r := start; r <= r1; r++ {
				st = c.Next(st, src.Uint64())
				x, y = c.Advance(st, x, y)
				k.buf[bn] = grid.Point{X: x, Y: y}
				bn++
				if bn == len(k.buf) {
					stripe.VisitBatch(k.buf[:])
					bn = 0
				}
			}
		case stripe != nil:
			for r := start; r <= r1; r++ {
				st = c.Next(st, src.Uint64())
				x, y = c.Advance(st, x, y)
				k.buf[bn] = grid.Point{X: x, Y: y}
				bn++
				if bn == len(k.buf) {
					stripe.VisitBatch(k.buf[:])
					bn = 0
				}
				if x == tx && y == ty && !found {
					found = true
					if first == 0 || r < first {
						first = r
					}
				}
			}
		default:
			for r, end := start, s.agentEnd(r1, first); r <= end; r++ {
				st = c.Next(st, src.Uint64())
				x, y = c.Advance(st, x, y)
				if x == tx && y == ty && hunting && !found {
					found = true
					if first == 0 || r < first {
						first = r
					}
					if s.spec {
						break
					}
				}
			}
		}
		s.store(i, st, x, y, found)
	}
	if stripe != nil {
		stripe.VisitBatch(k.buf[:bn])
	}
	return first
}

// runWorld steps agent i from round r through the segment when the
// open-plane loops cannot take it, and returns the stripe's earliest find
// so far, first updated with the agent's. It draws the successor state
// like them but resolves the state's grid action against the world —
// inline for the open plane and a frozen obstacle table, through
// World.Resolve otherwise — tests the whole target set (one compare for a
// single target) and draws the agent's crash before each round.
func (s *swarm) runWorld(k *kernel, i int, c *automata.CompiledMachine, r, first uint64) uint64 {
	src := &s.srcs[i]
	st := int(s.states[i])
	x, y := s.posX[i], s.posY[i]
	found := s.agents[i].Found
	open, blocked, hunting, one, t := k.open, k.blocked, k.hunting, k.one, k.t
	stripe, bn := k.stripe, k.bn
	for end := s.agentEnd(s.segR1, first); r <= end; r++ {
		if s.crashProb > 0 && s.faultSrcs[i].Uint64() < s.crashProb {
			s.crashed[i] = true
			s.agents[i].Crashed = true
			break
		}
		st = c.Next(st, src.Uint64())
		switch {
		case open:
			x, y = c.Advance(st, x, y)
		case blocked != nil:
			// A none state advances in place and every world contains
			// the origin, so only true moves can be refused.
			if nx, ny := c.Advance(st, x, y); !blocked.Contains(nx, ny) {
				x, y = nx, ny
			}
		default:
			if c.IsOrigin(st) {
				x, y = 0, 0
			} else if d, ok := c.Dir(st); ok {
				p, _ := s.world.Resolve(grid.Point{X: x, Y: y}, d)
				x, y = p.X, p.Y
			}
		}
		if stripe != nil {
			k.buf[bn] = grid.Point{X: x, Y: y}
			bn++
			if bn == len(k.buf) {
				stripe.VisitBatch(k.buf[:])
				bn = 0
			}
		}
		if found || !hunting {
			continue
		}
		if one && x == t.X && y == t.Y || !one && s.targets.Hit(grid.Point{X: x, Y: y}) {
			found = true
			if first == 0 || r < first {
				first = r
			}
			if s.spec {
				break
			}
		}
	}
	k.bn = bn
	s.store(i, st, x, y, found)
	return first
}

// store writes agent i's registers back to the swarm's arrays.
func (s *swarm) store(i, st int, x, y int64, found bool) {
	s.states[i] = int32(st)
	s.posX[i], s.posY[i] = x, y
	s.agents[i].Pos = grid.Point{X: x, Y: y}
	s.agents[i].State = st
	s.agents[i].Found = found
}

// specGrowth sets the length of a speculative StopOnFound segment: a
// segment starting at round r covers max(1, r/specGrowth) rounds, so the
// rounds stepped past the first find stay below 1/specGrowth (12.5%) of
// it, while a run to round F takes O(specGrowth·ln F) segments instead
// of F.
const specGrowth = 8

// specSegment returns the last round of the speculative segment starting
// at round, capped at the horizon.
func specSegment(round, horizon uint64) uint64 {
	n := round / specGrowth
	if n < 1 {
		n = 1
	}
	if n-1 >= horizon-round {
		return horizon
	}
	return round + n - 1
}

// RunRounds executes the swarm in lockstep. Observers (optional, may be
// nil) see the exact synchronous trajectory the paper's model defines.
func RunRounds(cfg RoundsConfig, obs RoundObserver, seed uint64) (*RoundsResult, error) {
	if cfg.Machine == nil && len(cfg.Machines) == 0 {
		return nil, errors.New("sim: nil machine")
	}
	if len(cfg.Machines) > 255 {
		return nil, fmt.Errorf("sim: at most 255 machine families, got %d", len(cfg.Machines))
	}
	for f, m := range cfg.Machines {
		if m == nil {
			return nil, fmt.Errorf("sim: machine family %d is nil", f)
		}
	}
	if err := validateAgents(cfg.NumAgents); err != nil {
		return nil, err
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("sim: need at least one round, got %d", cfg.Rounds)
	}
	if len(cfg.Checkpoints) > 0 {
		if cfg.TrackRadius <= 0 || cfg.CheckpointFn == nil {
			return nil, errors.New("sim: checkpoints require TrackRadius > 0 and a CheckpointFn")
		}
		if cfg.StopOnFound {
			return nil, errors.New("sim: StopOnFound would skip checkpoints; run without it to sample the full horizon")
		}
		if cfg.Checkpoints[0] < 1 {
			return nil, fmt.Errorf("sim: checkpoint %d can never fire (rounds are 1-based)", cfg.Checkpoints[0])
		}
		for i := 1; i < len(cfg.Checkpoints); i++ {
			if cfg.Checkpoints[i] <= cfg.Checkpoints[i-1] {
				return nil, fmt.Errorf("sim: checkpoints must increase (%d after %d)",
					cfg.Checkpoints[i], cfg.Checkpoints[i-1])
			}
		}
		if last := cfg.Checkpoints[len(cfg.Checkpoints)-1]; last > cfg.Rounds {
			return nil, fmt.Errorf("sim: checkpoint %d is beyond the run's %d rounds", last, cfg.Rounds)
		}
	}
	hasStatic := cfg.HasTarget || len(cfg.Targets) > 0
	if err := validateDynamics(cfg.World, cfg.DynamicWorld, hasStatic, cfg.DynamicTargets); err != nil {
		return nil, err
	}
	targets := mergeTargets(cfg.Target, cfg.HasTarget, cfg.Targets)
	if err := validateWorld(cfg.World, targets.Points()); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Adaptive() && !hasStatic && cfg.DynamicTargets == nil {
		return nil, errors.New("sim: adaptive crash policy needs targets to aim at")
	}
	n := cfg.NumAgents
	workers := roundWorkers(cfg.Workers, n)
	sw := newSwarm(cfg, targets, seed)
	sw.syncDynamics(1)

	track := cfg.TrackRadius > 0
	var master *grid.VisitSet
	stripes := make([]*grid.VisitSet, workers)
	if track {
		master = newTrackSet(cfg.TrackRadius, cfg.SparseVisits)
		master.Visit(grid.Origin)
		for w := range stripes {
			stripes[w] = newTrackSet(cfg.TrackRadius, cfg.SparseVisits)
		}
	}

	// An origin target is found before any round.
	res := &RoundsResult{Found: sw.targets.Hit(grid.Origin)}

	// Persistent worker pool: workers are started once and synchronized
	// with a channel segment barrier. Worker w owns agents [lo[w], hi[w])
	// and visit stripe w, so stepping needs no locks; the barrier gives
	// the main goroutine exclusive access between segments.
	chunk := (n + workers - 1) / workers
	var starts []chan struct{}
	var done chan uint64
	if workers > 1 {
		starts = make([]chan struct{}, workers)
		done = make(chan uint64, workers)
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			starts[w] = make(chan struct{})
			go func(lo, hi int, start chan struct{}, stripe *grid.VisitSet) {
				for range start {
					done <- sw.segment(lo, hi, stripe)
				}
			}(lo, hi, starts[w], stripes[w])
		}
		defer func() {
			for _, ch := range starts {
				close(ch)
			}
		}()
	}

	nextCk := 0
	mergeStripes := func() {
		for _, st := range stripes {
			master.Merge(st)
		}
	}
	// Observers, and StopOnFound runs whose agent states stay observable
	// (tracking, faults), need exclusive access after every round. A
	// StopOnFound run that exposes only the first-found round runs
	// speculative segments instead (specSegment). Otherwise segments extend
	// to the next checkpoint, the next dynamics epoch end, the next
	// adversary opportunity, or the horizon.
	sw.spec = cfg.StopOnFound && obs == nil && !track && !cfg.Faults.Enabled()
	perRound := obs != nil || cfg.StopOnFound
	for round := uint64(1); round <= cfg.Rounds; {
		sw.syncDynamics(round)
		segEnd := cfg.Rounds
		if sw.spec {
			segEnd = specSegment(round, cfg.Rounds)
		} else if perRound {
			segEnd = round
		}
		if nextCk < len(cfg.Checkpoints) && cfg.Checkpoints[nextCk] < segEnd {
			segEnd = cfg.Checkpoints[nextCk]
		}
		if sw.dynWorld != nil && sw.worldUntil < segEnd {
			segEnd = sw.worldUntil
		}
		if sw.dynTargets != nil && sw.targetsUntil < segEnd {
			segEnd = sw.targetsUntil
		}
		if sw.adv != nil && sw.adv.budget > 0 {
			if op := sw.adv.nextOpportunity(round); op < segEnd {
				segEnd = op
			}
		}
		// The barrier orders these writes before the workers' reads.
		sw.segR0, sw.segR1 = round, segEnd
		var firstFound uint64
		if workers == 1 {
			firstFound = sw.segment(0, n, stripes[0])
		} else {
			for _, ch := range starts {
				ch <- struct{}{}
			}
			for w := 0; w < workers; w++ {
				if f := <-done; f != 0 && (firstFound == 0 || f < firstFound) {
					firstFound = f
				}
			}
		}
		res.RoundsRun = segEnd
		if firstFound != 0 && !res.Found {
			res.Found = true
			res.FoundRound = firstFound
			if sw.spec {
				// The overshoot past the find is not part of the run.
				res.RoundsRun = firstFound
			}
		}
		// The adversary acts at the end of its opportunity rounds, before
		// observers see the snapshot, so crash flags are part of the
		// round's joint state regardless of segmentation.
		if sw.adv != nil && sw.adv.budget > 0 && segEnd%sw.adv.every == 0 {
			sw.adversaryStep()
		}
		if nextCk < len(cfg.Checkpoints) && segEnd == cfg.Checkpoints[nextCk] {
			mergeStripes()
			cfg.CheckpointFn(segEnd, master)
			nextCk++
		}
		if obs != nil {
			obs.Observe(segEnd, sw.agents)
		}
		if res.Found && cfg.StopOnFound {
			break
		}
		round = segEnd + 1
	}
	if track {
		mergeStripes()
		res.Visited = master
	}
	for _, c := range sw.crashed {
		if c {
			res.Crashed++
		}
	}
	return res, nil
}

// CoverageCurve runs the swarm synchronously and samples the cumulative
// number of distinct visited cells (within radius) at each checkpoint
// round. Checkpoints must be strictly increasing; the last one bounds the
// run length.
func CoverageCurve(machine *automata.Machine, numAgents int, radius int64, checkpoints []uint64, seed uint64) ([]int64, error) {
	return CoverageCurveWith(RoundsConfig{
		Machine:     machine,
		NumAgents:   numAgents,
		TrackRadius: radius,
	}, checkpoints, seed)
}

// CoverageCurveWith is CoverageCurve with an explicit engine configuration
// (worker bound, target, ...). cfg.Rounds, Checkpoints and CheckpointFn are
// set by this function; cfg.TrackRadius must be positive. StopOnFound is
// forced off: the curve's contract is that every checkpoint fires, so the
// run always executes the full horizon even when a target is being tracked.
func CoverageCurveWith(cfg RoundsConfig, checkpoints []uint64, seed uint64) ([]int64, error) {
	if len(checkpoints) == 0 {
		return nil, errors.New("sim: no checkpoints")
	}
	if cfg.TrackRadius <= 0 {
		return nil, fmt.Errorf("sim: coverage curve needs a positive radius, got %d", cfg.TrackRadius)
	}
	counts := make([]int64, len(checkpoints))
	next := 0
	cfg.StopOnFound = false
	cfg.Rounds = checkpoints[len(checkpoints)-1]
	cfg.Checkpoints = checkpoints
	cfg.CheckpointFn = func(round uint64, visited *grid.VisitSet) {
		counts[next] = visited.CountInBall()
		next++
	}
	if _, err := RunRounds(cfg, nil, seed); err != nil {
		return nil, err
	}
	return counts, nil
}
