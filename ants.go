// Package ants is the public API of the reproduction of "Trade-offs between
// Selection Complexity and Performance when Searching the Plane without
// Communication" (Lenzen, Lynch, Newport, Radeva; PODC 2014).
//
// It re-exports the library's stable surface: the grid substrate, the agent
// automaton model, the simulation engine, the paper's search algorithms and
// the baselines, and the sweep orchestration layer for declarative, cached,
// resumable experiment grids. See the examples/ directory for runnable
// programs and DESIGN.md for the architecture.
//
// # Quick start
//
//	factory, err := ants.NonUniformSearch(64, 1) // knows D = 64, ℓ = 1
//	if err != nil { ... }
//	stats, err := ants.RunPlacedTrials(ants.Config{
//		NumAgents:  16,
//		MoveBudget: 64 * 64 * 512,
//	}, ants.PlaceUniformBall, 64, factory, 20, 42)
package ants

import (
	"context"

	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// Grid substrate.
type (
	// Point is a lattice point of Z².
	Point = grid.Point
	// Direction is one of the four grid moves.
	Direction = grid.Direction
	// VisitSet records visited grid cells.
	VisitSet = grid.VisitSet
	// Rect is an axis-aligned rectangle of lattice points (obstacle worlds
	// are built from these).
	Rect = grid.Rect
)

// NewVisitSet returns a visit set with ball radius r. Small radii get a
// dense window bitmap; radii beyond the dense threshold automatically
// select the sparse tile-index backing, whose memory tracks cells touched
// instead of arena area.
func NewVisitSet(r int64) *VisitSet { return grid.NewVisitSet(r) }

// NewSparseVisitSet returns a visit set with ball radius r backed entirely
// by the sparse hierarchical tile index regardless of radius — the
// unbounded-arena backing (observationally identical to the dense one).
func NewSparseVisitSet(r int64) *VisitSet { return grid.NewSparseVisitSet(r) }

// The four grid directions.
const (
	Up    = grid.Up
	Down  = grid.Down
	Left  = grid.Left
	Right = grid.Right
)

// Origin is the agents' common start point.
var Origin = grid.Origin

// Agent model.
type (
	// Machine is a probabilistic finite state automaton (the paper's
	// agent model).
	Machine = automata.Machine
	// CompiledMachine is a machine's execution form: O(1) alias-table
	// sampling and precomputed grid actions (see DESIGN.md §2). Obtain it
	// via Machine.Compiled.
	CompiledMachine = automata.CompiledMachine
	// MachineAnalysis is the Markov-chain decomposition of a machine
	// (recurrent classes, periods, stationary distributions, drifts).
	MachineAnalysis = automata.Analysis
	// MachineWalker executes a machine against a random source.
	MachineWalker = automata.Walker
)

// NewMachineWalker returns a compiled-path walker for m seeded with seed.
func NewMachineWalker(m *Machine, seed uint64) *MachineWalker {
	return automata.NewWalker(m, rngNew(seed))
}

// AnalyzeMachine decomposes a machine's Markov chain.
func AnalyzeMachine(m *Machine) (*MachineAnalysis, error) {
	return automata.Analyze(m)
}

// RandomWalkMachine returns the 5-state uniform-random-walk automaton.
func RandomWalkMachine() *Machine { return automata.RandomWalk() }

// DriftLineMachine returns a 2^bits-state machine with a single drift line,
// the lower bound's canonical low-χ agent.
func DriftLineMachine(bits int) (*Machine, error) {
	return automata.DriftLineMachine(bits)
}

// Simulation engine.
type (
	// Config describes one multi-agent search instance.
	Config = sim.Config
	// Result is the outcome of one instance.
	Result = sim.Result
	// TrialStats aggregates repeated trials.
	TrialStats = sim.TrialStats
	// Factory builds one agent program per agent per trial.
	Factory = sim.Factory
	// Program is an agent algorithm.
	Program = sim.Program
	// Env is the agent-world interface passed to programs.
	Env = sim.Env
	// Placement selects target positions.
	Placement = sim.Placement
)

// Target placements.
const (
	PlaceCorner        = sim.PlaceCorner
	PlaceAxis          = sim.PlaceAxis
	PlaceUniformBall   = sim.PlaceUniformBall
	PlaceUniformSphere = sim.PlaceUniformSphere
)

// Run executes one multi-agent search with the given root seed.
func Run(cfg Config, factory Factory, seed uint64) (*Result, error) {
	return sim.Run(cfg, factory, rngNew(seed))
}

// RunTrials repeats a search configuration over independent trials.
func RunTrials(cfg Config, factory Factory, trials int, seed uint64) (*TrialStats, error) {
	return sim.RunTrials(cfg, factory, trials, seed)
}

// RunPlacedTrials is RunTrials with a fresh target drawn per trial from the
// placement at distance d.
func RunPlacedTrials(cfg Config, place Placement, d int64, factory Factory, trials int, seed uint64) (*TrialStats, error) {
	return sim.RunPlacedTrials(cfg, place, d, factory, trials, seed)
}

// The paper's algorithms and their χ audits.
type (
	// Audit is the selection-complexity account of an algorithm
	// configuration: memory registers, b, ℓ, and χ = b + log ℓ.
	Audit = search.Audit
)

// NonUniformSearch returns a factory for the paper's Non-Uniform-Search
// (Algorithms 1+2; Theorems 3.5, 3.7): the agent knows D, finds the target
// in O(D²/n + D) expected moves, χ = log log D + O(1).
func NonUniformSearch(d int64, ell uint) (Factory, error) {
	return search.NonUniformFactory(d, ell)
}

// NonUniformAudit returns the χ audit for a Non-Uniform-Search
// configuration.
func NonUniformAudit(d int64, ell uint) (Audit, error) {
	p, err := search.NewNonUniform(d, ell)
	if err != nil {
		return Audit{}, err
	}
	return p.Audit(), nil
}

// UniformSearch returns a factory for the paper's Algorithm 5 (Theorem
// 3.14): the agent does not know D, finds the target in
// (D²/n + D)·2^{O(ℓ)} expected moves, χ ≤ 3 log log D + O(1). The machine
// depends on the agent count n.
func UniformSearch(ell uint, n int) (Factory, error) {
	return search.UniformFactory(ell, n)
}

// UniformAudit returns the χ audit of Algorithm 5 at the phase that first
// covers distance d.
func UniformAudit(ell uint, n int, d int64) (Audit, error) {
	p, err := search.NewUniform(ell, n)
	if err != nil {
		return Audit{}, err
	}
	return p.AuditForDistance(d), nil
}

// Algorithm1Machine returns the explicit five-state automaton of the
// paper's figure for a known distance D.
func Algorithm1Machine(d int64) (*Machine, error) {
	return search.Algorithm1Machine(d)
}

// Baselines.

// RandomWalkSearch returns the uniform-random-walk baseline factory
// (speed-up at most min{log n, D}).
func RandomWalkSearch() Factory { return baseline.RandomWalkFactory() }

// SpiralSearch returns the deterministic single-agent spiral baseline.
func SpiralSearch() Factory { return baseline.SpiralFactory() }

// FeinermanSearch returns the harmonic-search-style baseline of Feinerman
// et al.: optimal O(D²/n + D) moves but Θ(log D) memory (χ = Θ(log D)).
func FeinermanSearch(n int) (Factory, error) { return baseline.FeinermanFactory(n) }

// MachineSearch adapts any automaton to a search factory; stepBudget caps
// the Markov steps per agent (0 = unlimited).
func MachineSearch(m *Machine, stepBudget uint64) (Factory, error) {
	return sim.MachineFactory(m, stepBudget)
}

// Synchronous execution (the paper's round-based model).
type (
	// RoundsConfig parameterizes a synchronous lockstep run.
	RoundsConfig = sim.RoundsConfig
	// RoundsResult is the outcome of a synchronous run.
	RoundsResult = sim.RoundsResult
	// RoundObserver receives per-round swarm snapshots.
	RoundObserver = sim.RoundObserver
	// AgentState is one agent's per-round snapshot.
	AgentState = sim.AgentState
)

// RunRounds executes a swarm of identical automata in lockstep rounds.
func RunRounds(cfg RoundsConfig, obs RoundObserver, seed uint64) (*RoundsResult, error) {
	return sim.RunRounds(cfg, obs, seed)
}

// CoverageCurve samples the swarm's cumulative coverage of the radius-ball
// at the given checkpoint rounds.
func CoverageCurve(m *Machine, numAgents int, radius int64, checkpoints []uint64, seed uint64) ([]int64, error) {
	return sim.CoverageCurve(m, numAgents, radius, checkpoints, seed)
}

// CoverageCurveWith is CoverageCurve with an explicit engine configuration
// (worker bound, target, ...).
func CoverageCurveWith(cfg RoundsConfig, checkpoints []uint64, seed uint64) ([]int64, error) {
	return sim.CoverageCurveWith(cfg, checkpoints, seed)
}

// Scenario engine: pluggable world topologies, target placements and agent
// fault models (see internal/scenario and DESIGN.md §6).
type (
	// World is the topology agents move on: it decides which moves are
	// legal, applies wraparound, and reports position membership. A nil
	// World in a Config means the open plane, exactly like OpenPlane{}.
	World = sim.World
	// OpenPlane is the paper's unbounded lattice Z².
	OpenPlane = sim.OpenPlane
	// HalfPlane restricts the world to y ≥ 0.
	HalfPlane = sim.HalfPlane
	// Quadrant restricts the world to x, y ≥ 0.
	Quadrant = sim.Quadrant
	// Torus is the L×L torus with wraparound moves.
	Torus = sim.Torus
	// Obstacles is the open plane minus a set of blocked rectangles.
	Obstacles = sim.Obstacles
	// FaultModel injects agent failures (per-opportunity crashes, delayed
	// starts, adaptive adversaries) into a run; the zero value disables
	// all faults.
	FaultModel = sim.FaultModel
	// CrashPolicy selects how crash faults pick their victims (uniform
	// coin flips or the budgeted adaptive adversary).
	CrashPolicy = sim.CrashPolicy
	// TargetSet is an immutable set of target points with O(1) membership
	// and nearest-target queries.
	TargetSet = sim.TargetSet
	// Scenario is a built world/target/fault configuration from the
	// scenario registry.
	Scenario = scenario.Scenario
	// ScenarioPreset is one registered scenario family.
	ScenarioPreset = scenario.Preset
)

// The crash-victim selection policies (see CrashPolicy).
const (
	// CrashUniform is the oblivious model: independent per-agent coins.
	CrashUniform = sim.CrashUniform
	// CrashNearest is the budgeted adaptive adversary; rounds engine only.
	CrashNearest = sim.CrashNearest
)

// ErrAdaptiveAsync is returned when a CrashNearest fault model reaches the
// asynchronous engine, which cannot host an adaptive adversary (it never
// materializes the joint swarm state the adversary inspects).
var ErrAdaptiveAsync = sim.ErrAdaptiveAsync

// ErrScenarioUnknownParam is the sentinel wrapped by BuildScenario's error
// when a spec names parameters the preset does not accept; test for it with
// errors.Is.
var ErrScenarioUnknownParam = scenario.ErrUnknownParam

// NewTargetSet builds a target set from the given points (duplicates are
// collapsed).
func NewTargetSet(pts ...Point) TargetSet { return sim.NewTargetSet(pts...) }

// Dynamic worlds and target schedules (DESIGN.md §12): epoch-based
// time-varying topology and targets for both engines. Schedules are pure
// functions of the 1-based round — they never consume randomness — so
// dynamics compose with the determinism and conformance guarantees.
type (
	// DynamicWorld is a time-varying topology: Tick(round) returns the
	// world in force at that round and the last round it stays in force.
	DynamicWorld = sim.DynamicWorld
	// TargetSchedule is a time-varying target set: Targets(round) returns
	// the set in force at that round and the last round it stays in force.
	TargetSchedule = sim.TargetSchedule
	// FixedWorld adapts a static World to the DynamicWorld interface.
	FixedWorld = sim.FixedWorld
	// FixedTargets adapts a static target list to TargetSchedule.
	FixedTargets = sim.FixedTargets
	// WorldEpoch is one piece of a WorldSchedule: a world and the first
	// round it takes effect.
	WorldEpoch = sim.WorldEpoch
	// WorldSchedule is a piecewise-constant DynamicWorld; the last epoch's
	// world holds forever.
	WorldSchedule = sim.WorldSchedule
	// PulseWorld alternates between two worlds with fixed dwell times
	// (e.g. a corridor that opens and closes).
	PulseWorld = sim.PulseWorld
	// CycleWorld rotates through a ring of worlds with a fixed period.
	CycleWorld = sim.CycleWorld
	// TargetEpoch is one piece of a TargetTimeline: a target list and the
	// first round it takes effect.
	TargetEpoch = sim.TargetEpoch
	// TargetTimeline is a piecewise-constant TargetSchedule; after the
	// last epoch's span the set is empty forever (expiring targets).
	TargetTimeline = sim.TargetTimeline
	// PulseTargets blinks a target list on and off with fixed dwells.
	PulseTargets = sim.PulseTargets
	// DriftTargets translates a base target list by a velocity step every
	// fixed number of rounds (moving targets).
	DriftTargets = sim.DriftTargets
)

// RoundsTrialStats aggregates repeated synchronous-engine trials (found
// fraction, hit rounds, mean crashed agents).
type RoundsTrialStats = sim.RoundsTrialStats

// RunRoundsTrials repeats a synchronous rounds configuration over
// independent trials, deriving one root seed per trial.
func RunRoundsTrials(cfg RoundsConfig, trials int, seed uint64) (*RoundsTrialStats, error) {
	return sim.RunRoundsTrials(cfg, trials, seed)
}

// NewObstacles returns the open plane minus the given blocked rectangles,
// with membership backed by the sparse tile index for O(depth) Resolve
// checks on large obstacle fields.
func NewObstacles(blocked ...Rect) Obstacles { return sim.NewObstacles(blocked...) }

// BuildScenario instantiates a scenario spec ("torus", "ring:k=4",
// "crash:crash=0.001") for nominal target distance d. Apply the result to
// a Config or RoundsConfig to run any algorithm on that world.
func BuildScenario(spec string, d int64) (Scenario, error) {
	return scenario.Build(spec, d)
}

// ScenarioPresets returns the registered scenario presets.
func ScenarioPresets() []ScenarioPreset { return scenario.Presets() }

// ScenarioNames returns the registered scenario preset names.
func ScenarioNames() []string { return scenario.Names() }

// Sweep orchestration (declarative experiment grids; see internal/sweep).
type (
	// SweepGrid declares a cartesian experiment space: named axes, a
	// per-point trial count, and a kernel-semantics version.
	SweepGrid = sweep.Grid
	// SweepAxis is one dimension of a grid (a fixed parameter is an axis
	// with a single value).
	SweepAxis = sweep.Axis
	// SweepPoint is one expanded cell of a grid; kernels read its
	// parameters through SweepPoint.Bind.
	SweepPoint = sweep.Point
	// SweepCtx is the kernel execution context (root seed, trials, engine
	// worker bound).
	SweepCtx = sweep.Ctx
	// SweepResult is what a kernel computes for one point: samples, named
	// scalars, and series.
	SweepResult = sweep.Result
	// SweepPointFunc computes one grid point; it must be concurrency-safe
	// and deterministic in (point, seed, trials).
	SweepPointFunc = sweep.PointFunc
	// SweepOptions parameterize a run: seed, shard count, cache, resume,
	// progress callback.
	SweepOptions = sweep.Options
	// SweepProgress is one progress event (SweepOptions.Progress receives
	// them from worker goroutines).
	SweepProgress = sweep.Progress
	// SweepReport is a run's outcome: every point in expansion order plus
	// cache accounting.
	SweepReport = sweep.Report
	// SweepSummary is the aggregate table (mean, 95% CI, quantiles per
	// point), emitted as JSON and CSV artifacts via WriteArtifacts.
	SweepSummary = sweep.Summary
	// SweepCache is the content-addressed on-disk store of point results
	// that makes sweeps resumable.
	SweepCache = sweep.Cache
)

// Axis constructors for declaring sweep grids.
var (
	SweepInt64Axis  = sweep.Int64Axis
	SweepIntAxis    = sweep.IntAxis
	SweepUintAxis   = sweep.UintAxis
	SweepStringAxis = sweep.StringAxis
)

// RunSweep expands the grid and evaluates fn at every point, sharding
// points across workers; with a cache and Resume set, previously computed
// points are served from disk instead of recomputed.
func RunSweep(g SweepGrid, fn SweepPointFunc, opts SweepOptions) (*SweepReport, error) {
	return sweep.Run(g, fn, opts)
}

// NewSweepCache returns the process's content-addressed sweep cache for
// dir, creating the directory if needed. Every call for one directory
// returns the same instance; entries are appended to pack segments that
// other processes sharing the directory read too (see sweep.Cache).
func NewSweepCache(dir string) (*SweepCache, error) {
	return sweep.NewCache(dir)
}

// Simulation service (the antsimd daemon core): a job queue, a bounded
// worker pool reusing the sweep layer and its cache, per-job NDJSON/SSE
// event streams, and result artifacts byte-identical to CLI runs. See
// docs/API.md for the HTTP reference and DESIGN.md §7 for the design.
type (
	// Service is the daemon core: queue, worker pool, event logs,
	// artifacts. Create with NewService, expose with Service.Handler,
	// stop with Service.Close.
	Service = service.Service
	// ServiceConfig parameterizes a Service (worker count, queue depth,
	// sweep cache directory, durable data directory, stream keepalive
	// cadence). With a DataDir the Service replays its write-ahead log on
	// restart to a byte-identical job table (DESIGN.md §7).
	ServiceConfig = service.Config
	// ServiceStats is the aggregate state served at /v1/stats (queue
	// depth, jobs by state, points/sec, cache hit rate).
	ServiceStats = service.Stats
	// ServiceMonitorState is the control-chart health view served at
	// /v1/monitor (overall verdict, per-series estimator state, recent
	// state transitions).
	ServiceMonitorState = service.MonitorState
	// HealthMonitor is a set of named EWMA control-chart estimators — the
	// change detector behind /v1/monitor and `antbench -sentinel`
	// (internal/monitor, DESIGN.md §10).
	HealthMonitor = monitor.Monitor
	// ServiceRoute is one entry of the service's HTTP route table.
	ServiceRoute = service.Route
	// ServiceClient is the Go client of the antsimd HTTP API.
	ServiceClient = service.Client
	// Job is the public record of one submitted job: normalized spec,
	// lifecycle state, progress counters, timestamps.
	Job = service.Job
	// JobSpec describes one experiment job: a registered sweep or a
	// single scenario configuration plus parameters.
	JobSpec = service.JobSpec
	// JobState is one station of the job lifecycle (queued → running →
	// done | failed | cancelled).
	JobState = service.JobState
	// JobEvent is one entry of a job's append-only event log (state
	// transitions and per-point progress).
	JobEvent = service.Event
	// JobEventStream is an open NDJSON event stream of one job; read it
	// with Next until io.EOF.
	JobEventStream = service.EventStream
)

// The job lifecycle states (see JobState).
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobDone      = service.StateDone
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// The job kinds accepted by JobSpec.Kind.
const (
	JobKindSweep    = service.KindSweep
	JobKindScenario = service.KindScenario
)

// NewService builds and starts a simulation service: the worker pool is
// running and Submit is immediately usable. Expose it over HTTP with
// Service.Handler (the route table is ServiceRoutes).
func NewService(cfg ServiceConfig) (*Service, error) {
	return service.New(cfg)
}

// NewServiceClient returns a client for the antsimd daemon at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewServiceClient(baseURL string) *ServiceClient {
	return service.NewClient(baseURL)
}

// ServiceRoutes returns the service's HTTP route table — the endpoints
// documented in docs/API.md.
func ServiceRoutes() []ServiceRoute { return service.RouteTable() }

// LoadOrCreateWorkerID returns the stable worker identity persisted in
// dir (creating it on first use): the id a restarting worker rejoins a
// coordinator's fleet under, displacing its stale registration
// immediately instead of waiting out the TTL.
func LoadOrCreateWorkerID(dir string) (string, error) {
	return service.LoadOrCreateWorkerID(dir)
}

// NewWorkerID returns a fresh random worker identity ("w-" plus 16 hex
// digits) without persisting it.
func NewWorkerID() (string, error) { return service.NewWorkerID() }

// Distributed grid execution (the cluster layer): a coordinator shards a
// registered sweep or a synthesis batch across a fleet of antsimd
// workers, survives worker failures by reassigning shards, steals the
// tail shard from stragglers, federates the content-addressed cache, and
// merges artifacts byte-identical to a local run. See DESIGN.md §8.
type (
	// Cluster is a coordinator over a fixed antsimd worker fleet; its
	// Dispatch method runs a grid, named by a shard JobSpec without
	// points, across the fleet.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a Cluster: fleet URLs, shard size,
	// coordinator cache, heartbeat policy.
	ClusterConfig = cluster.Config
	// ClusterProgress is one distributed-run progress event: a grid point
	// merged from the coordinator cache or from a worker shard.
	ClusterProgress = cluster.Progress
	// ClusterStats is the distribution accounting of one dispatch
	// (shards, reassignments, steals, cache provenance).
	ClusterStats = cluster.Stats
	// Dispatch is the outcome of one distributed run: the merged report
	// — byte-identical to a local run's — plus ClusterStats.
	Dispatch = cluster.Dispatch
	// ServiceDistributor is the hook an antsimd daemon uses to execute
	// sweep jobs across a fleet instead of locally (Service.SetDistributor).
	ServiceDistributor = service.Distributor
	// WorkerInfo is one live entry of a coordinator's worker registry
	// (/v1/cluster/workers).
	WorkerInfo = service.WorkerInfo
	// JobFailedError is returned by ServiceClient.Wait when a job ends in
	// the failed state, carrying the terminal event's error message.
	JobFailedError = service.JobFailedError
)

// NewCluster validates the fleet and returns a coordinator for
// distributed sweep and synthesis runs.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// Automata synthesis (internal/synth, DESIGN.md §11): an annealing search
// over machine specs, one independent run per state budget, every
// candidate scored through the sweep layer against the D²/n + D lower
// bound — deterministic by seed, cache-addressed by candidate identity,
// resumable with zero re-executed kernels, and distributable across a
// fleet with an identical trajectory (`antsim -synthesize`).
type (
	// MachineSpec is the JSON-serializable machine description
	// (automata.Spec): the synthesis genome and the format of the
	// per-budget artifact files.
	MachineSpec = automata.Spec
	// SynthConfig parameterizes one synthesis search (state-budget range,
	// generations, population, seed, scoring).
	SynthConfig = synth.Config
	// SynthEvalConfig parameterizes candidate scoring (curve distances,
	// colony size, trials, move-budget factor).
	SynthEvalConfig = synth.EvalConfig
	// SynthProgress is one generation-boundary progress event.
	SynthProgress = synth.Progress
	// SynthResult is a search outcome: the best machine per state budget,
	// byte-stable across reruns, shard counts, fleets, and resumes.
	SynthResult = synth.Result
	// SynthBudgetResult is one state budget's winner.
	SynthBudgetResult = synth.BudgetResult
	// SynthCurve is one candidate's hit-time curve and scalar score.
	SynthCurve = synth.Curve
	// SynthCurvePoint is one distance of a candidate's curve.
	SynthCurvePoint = synth.CurvePoint
	// SynthEvaluator scores candidate batches; the search is agnostic to
	// where the kernels run.
	SynthEvaluator = synth.Evaluator
	// SynthLocalEvaluator scores candidates in-process through the sweep
	// layer and its cache.
	SynthLocalEvaluator = synth.LocalEvaluator
	// ClusterSynthEvaluator fans candidate batches across an antsimd
	// fleet as shard jobs over inline evaluation grids.
	ClusterSynthEvaluator = cluster.SynthEvaluator
)

// Synthesize runs the design-space search: per state budget, a (1+λ)
// annealing loop over mutated machine specs, batch-scored by ev.
func Synthesize(ctx context.Context, cfg SynthConfig, ev SynthEvaluator) (*SynthResult, error) {
	return synth.Search(ctx, cfg, ev)
}

// MutateSpec applies one random mutation operator (add/remove state,
// rewire edge, perturb weights, toggle grid action) to a valid spec,
// returning a canonical spec that builds, round-trips, and respects the
// state budget.
func MutateSpec(s *MachineSpec, budget int, seed uint64) (*MachineSpec, error) {
	return synth.Mutate(s, budget, rngNew(seed))
}

// ReadMachineSpec loads and builds a machine from a JSON spec file (the
// per-budget artifacts of `antsim -synthesize`).
func ReadMachineSpec(path string) (*Machine, error) {
	return automata.ReadSpecFile(path)
}

// NewClusterDistributor adapts the cluster coordinator to the service
// layer's distributor hook: a daemon with this installed dispatches its
// sweep jobs across the worker fleet returned by workers (typically its
// live join registry), falling back to local execution when the fleet is
// empty. Heartbeat-probe round-trips land in health when non-nil
// (typically the daemon's Service.Monitor), so /v1/monitor covers the
// fleet.
func NewClusterDistributor(workers func() []string, cacheDir string, health *HealthMonitor) ServiceDistributor {
	return cluster.NewDistributor(workers, cacheDir, health)
}
