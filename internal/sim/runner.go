package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/rng"
)

// ErrAdaptiveAsync is returned by Run when the fault model requests the
// CrashNearest policy: the budgeted adaptive adversary ranks all live
// agents by target distance each opportunity, a joint view only the
// synchronous engine (RunRounds) has.
var ErrAdaptiveAsync = errors.New("sim: adaptive crash policy requires the synchronous rounds engine")

// MaxAgents bounds the swarm size of one run. Both engines keep per-agent
// state for the whole run — the rounds engine about 128 bytes an agent
// with the fault model on, the async engine a 32-byte result slot — so a
// run at the bound stays near 1 GiB.
const MaxAgents = 1 << 23

// ErrTooManyAgents is returned, before anything is allocated, for a run of
// more than MaxAgents agents.
var ErrTooManyAgents = errors.New("sim: too many agents")

// validateAgents checks a run's swarm size against [1, MaxAgents].
func validateAgents(n int) error {
	if n < 1 {
		return fmt.Errorf("sim: need at least one agent, got %d", n)
	}
	if n > MaxAgents {
		return fmt.Errorf("%w: %d, at most %d", ErrTooManyAgents, n, MaxAgents)
	}
	return nil
}

// Factory builds a fresh Program instance for one agent. It is invoked once
// per agent per trial; instances must not share mutable state.
type Factory func() Program

// Config describes one multi-agent search instance.
type Config struct {
	// NumAgents is the paper's n, at most MaxAgents.
	NumAgents int
	// Target is the target position (max-norm distance at most D in the
	// experiments). HasTarget false with an empty Targets list runs a pure
	// coverage experiment.
	Target    grid.Point
	HasTarget bool
	// Targets lists additional target points (multi-target scenarios);
	// they combine with Target/HasTarget into one target set.
	Targets []grid.Point
	// World is the topology agents move on. Nil and OpenPlane{} both mean
	// the open plane; restricted worlds block or wrap moves. Targets must
	// be positions of the world.
	World World
	// DynamicWorld, when non-nil, makes the topology time-varying: each
	// agent queries the schedule on its own clock (its k-th Markov step
	// happens in round k). Mutually exclusive with World.
	DynamicWorld DynamicWorld
	// DynamicTargets, when non-nil, makes the target set time-varying,
	// clocked like DynamicWorld. Mutually exclusive with Target/Targets.
	DynamicTargets TargetSchedule
	// Faults is the agent fault model (zero value: no faults). Fault
	// randomness comes from a substream disjoint from the agents' walk
	// streams, so enabling faults never changes surviving trajectories.
	// The CrashNearest policy is rejected with ErrAdaptiveAsync: the
	// adaptive adversary needs the joint swarm state, which only the
	// synchronous rounds engine materializes.
	Faults FaultModel
	// MoveBudget caps each agent's moves; 0 means unlimited (only safe for
	// algorithms guaranteed to find the target).
	MoveBudget uint64
	// TrackRadius, when positive, records every cell visited by any agent
	// into a merged VisitSet with the given ball radius.
	TrackRadius int64
	// SparseVisits forces the sparse tile-index backing for the visit sets
	// regardless of TrackRadius (large radii select it automatically); see
	// RoundsConfig.SparseVisits.
	SparseVisits bool
	// Workers bounds the concurrency; 0 means GOMAXPROCS.
	Workers int
	// HookFactory, when non-nil, builds an event hook per agent id (may
	// return nil for agents that should not be observed). Hooks fire from
	// worker goroutines; implementations observing multiple agents must be
	// concurrency-safe.
	HookFactory func(agentID int) EnvHook
}

// AgentResult is the outcome of one agent's run.
type AgentResult struct {
	Found bool
	// Crashed reports whether the fault model crashed the agent.
	Crashed bool
	// Moves is the agent's move count when it found the target, or the
	// total moves consumed when it did not.
	Moves uint64
	// Steps is the corresponding Markov-step count.
	Steps uint64
	// TargetDist is the max-norm distance from the agent's final position
	// to the nearest target (0 for agents that ended on one, -1 when the
	// run has no targets) — the "how close did the failures get" statistic
	// of budgeted runs.
	TargetDist int64
}

// Result is the outcome of one multi-agent search.
type Result struct {
	// Found reports whether any agent found the target.
	Found bool
	// MinMoves is the paper's M_moves: the minimum over agents that found
	// the target of their move count. Zero-valued when Found is false.
	MinMoves uint64
	// MinSteps is M_steps, analogously.
	MinSteps uint64
	// Agents holds the per-agent outcomes, indexed by agent id.
	Agents []AgentResult
	// Visited is the union of visited cells across agents when the config
	// requested tracking, nil otherwise.
	Visited *grid.VisitSet
}

// Run executes one search instance: NumAgents independent copies of the
// program race to find the target. The root source seeds per-agent
// substreams, so results are reproducible. Agent errors other than budget
// exhaustion abort the run.
//
// The work queue is a single atomic counter and each agent id owns its slot
// of the result slice, so the steady state takes no locks; workers reuse
// their Env and Source values across agents, so it allocates only what the
// programs themselves allocate.
func Run(cfg Config, factory Factory, root *rng.Source) (*Result, error) {
	if err := validateAgents(cfg.NumAgents); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, errors.New("sim: nil program factory")
	}
	if root == nil {
		return nil, errors.New("sim: nil random source")
	}
	hasStatic := cfg.HasTarget || len(cfg.Targets) > 0
	if err := validateDynamics(cfg.World, cfg.DynamicWorld, hasStatic, cfg.DynamicTargets); err != nil {
		return nil, err
	}
	// One merged (and, above the threshold, indexed) set serves every
	// agent: TargetSet lookups never mutate, so workers share it.
	targets := mergeTargets(cfg.Target, cfg.HasTarget, cfg.Targets)
	if err := validateWorld(cfg.World, targets.Points()); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Policy == CrashNearest {
		return nil, ErrAdaptiveAsync
	}
	var faultRoot *rng.Source
	if cfg.Faults.Enabled() {
		faultRoot = root.Derive(faultStreamTag)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.NumAgents {
		workers = cfg.NumAgents
	}

	res := &Result{Agents: make([]AgentResult, cfg.NumAgents)}
	visits := make([]*grid.VisitSet, 0, workers)

	var (
		wg      sync.WaitGroup
		next    atomic.Int64 // next agent id to claim
		stop    atomic.Bool  // set on first non-budget error
		errOnce sync.Once
		runErr  error
	)
	for w := 0; w < workers; w++ {
		var track *grid.VisitSet
		if cfg.TrackRadius > 0 {
			track = newTrackSet(cfg.TrackRadius, cfg.SparseVisits)
			visits = append(visits, track)
		}
		wg.Add(1)
		go func(track *grid.VisitSet) {
			defer wg.Done()
			var env Env
			var src, faultSrc rng.Source
			for !stop.Load() {
				id := int(next.Add(1)) - 1
				if id >= cfg.NumAgents {
					return
				}
				var hook EnvHook
				if cfg.HookFactory != nil {
					hook = cfg.HookFactory(id)
				}
				root.DeriveInto(uint64(id), &src)
				ec := EnvConfig{
					World:          cfg.World,
					DynamicWorld:   cfg.DynamicWorld,
					DynamicTargets: cfg.DynamicTargets,
					MoveBudget:     cfg.MoveBudget,
					Src:            &src,
					TrackVisits:    track,
					Hook:           hook,
				}
				if faultRoot != nil {
					faultRoot.DeriveInto(uint64(id), &faultSrc)
					ec.CrashProb = cfg.Faults.CrashProb
					ec.FaultSrc = &faultSrc
					ec.StartDelaySteps = cfg.Faults.startDelay(&faultSrc)
				}
				env.reset(ec, targets)
				if err := factory().Run(&env); err != nil && !errors.Is(err, ErrBudget) {
					errOnce.Do(func() { runErr = fmt.Errorf("sim: agent %d: %w", id, err) })
					stop.Store(true)
					return
				}
				// The slot is owned by this worker: no other goroutine
				// writes index id, and wg.Wait orders it before the reads.
				res.Agents[id] = AgentResult{
					Found:      env.Found(),
					Crashed:    env.Crashed(),
					Moves:      movesOf(&env),
					Steps:      env.Steps(),
					TargetDist: env.TargetDist(),
				}
			}
		}(track)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	res.MinMoves = math.MaxUint64
	res.MinSteps = math.MaxUint64
	for _, a := range res.Agents {
		if !a.Found {
			continue
		}
		res.Found = true
		if a.Moves < res.MinMoves {
			res.MinMoves = a.Moves
		}
		if a.Steps < res.MinSteps {
			res.MinSteps = a.Steps
		}
	}
	if !res.Found {
		res.MinMoves = 0
		res.MinSteps = 0
	}
	if cfg.TrackRadius > 0 {
		merged := newTrackSet(cfg.TrackRadius, cfg.SparseVisits)
		for _, v := range visits {
			merged.Merge(v)
		}
		res.Visited = merged
	}
	return res, nil
}

func movesOf(e *Env) uint64 {
	if e.Found() {
		return e.FoundAt()
	}
	return e.Moves()
}

// TrialStats aggregates M_moves over repeated trials of the same config.
type TrialStats struct {
	Trials    int
	FoundAll  bool      // every trial found the target
	FoundFrac float64   // fraction of trials that found the target
	Moves     []float64 // M_moves of each successful trial
	Steps     []float64 // M_steps of each successful trial
}

// RunTrials repeats Run with independent substreams and collects M_moves.
// Trials are executed sequentially; the agents within each trial already
// fan out over the worker pool.
func RunTrials(cfg Config, factory Factory, trials int, seed uint64) (*TrialStats, error) {
	return runTrials(cfg, factory, trials, seed, nil)
}

// RunTrial runs trial t: Run on substream t of the root seed (RunTrials' rule).
func RunTrial(cfg Config, factory Factory, seed uint64, t int) (*Result, error) {
	return Run(cfg, factory, rng.New(seed).Derive(uint64(t)))
}

// runTrials is the trial loop of RunTrials and RunPlacedTrials. A non-nil
// place sets each trial's target on cfg before the trial runs; its error
// is returned as is.
func runTrials(cfg Config, factory Factory, trials int, seed uint64, place func(*Config) error) (*TrialStats, error) {
	if trials < 1 {
		return nil, fmt.Errorf("sim: need at least one trial, got %d", trials)
	}
	st := &TrialStats{Trials: trials}
	found := 0
	for t := 0; t < trials; t++ {
		if place != nil {
			if err := place(&cfg); err != nil {
				return nil, err
			}
		}
		res, err := RunTrial(cfg, factory, seed, t)
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d: %w", t, err)
		}
		if res.Found {
			found++
			st.Moves = append(st.Moves, float64(res.MinMoves))
			st.Steps = append(st.Steps, float64(res.MinSteps))
		}
	}
	st.FoundFrac = float64(found) / float64(trials)
	st.FoundAll = found == trials
	return st, nil
}
