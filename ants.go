// Package ants is the public API of the reproduction of "Trade-offs between
// Selection Complexity and Performance when Searching the Plane without
// Communication" (Lenzen, Lynch, Newport, Radeva; PODC 2014).
//
// It exports what the examples/ programs, the README and docs/API.md call:
// the paper's search algorithms with their χ audits, the baselines, trials
// on the simulation engine, scenario worlds, sweeps, machine synthesis and
// the antsimd daemon, plus the types those functions name. Everything else
// lives in the internal packages; see DESIGN.md for the architecture.
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
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// Point is a lattice point of Z².
type Point = grid.Point

// Agent model.
type (
	// Machine is a probabilistic finite state automaton (the paper's
	// agent model).
	Machine = automata.Machine
	// MachineAnalysis is the Markov-chain decomposition of a machine
	// (recurrent classes, periods, stationary distributions, drifts).
	MachineAnalysis = automata.Analysis
)

// AnalyzeMachine decomposes a machine's Markov chain.
func AnalyzeMachine(m *Machine) (*MachineAnalysis, error) {
	return automata.Analyze(m)
}

// RandomWalkMachine returns the 5-state uniform-random-walk automaton.
func RandomWalkMachine() *Machine { return automata.RandomWalk() }

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
	// Placement selects target positions.
	Placement = sim.Placement
)

// PlaceUniformBall draws each trial's target uniformly from the ball of
// radius d.
const PlaceUniformBall = sim.PlaceUniformBall

// Run executes one multi-agent search with the given root seed.
func Run(cfg Config, factory Factory, seed uint64) (*Result, error) {
	return sim.Run(cfg, factory, rng.New(seed))
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

// Audit is the selection-complexity account of an algorithm configuration:
// memory registers, b, ℓ, and χ = b + log ℓ.
type Audit = search.Audit

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

// RandomWalkSearch returns the uniform-random-walk baseline factory
// (speed-up at most min{log n, D}).
func RandomWalkSearch() Factory { return baseline.RandomWalkFactory() }

// FeinermanSearch returns the harmonic-search-style baseline of Feinerman
// et al.: optimal O(D²/n + D) moves but Θ(log D) memory (χ = Θ(log D)).
func FeinermanSearch(n int) (Factory, error) { return baseline.FeinermanFactory(n) }

// Scenario is a built world/target/fault configuration from the scenario
// registry (see internal/scenario and DESIGN.md §6).
type Scenario = scenario.Scenario

// BuildScenario instantiates a scenario spec ("torus", "ring:k=4",
// "crash:crash=0.001") for nominal target distance d. Apply the result to
// a Config to run any algorithm on that world.
func BuildScenario(spec string, d int64) (Scenario, error) {
	return scenario.Build(spec, d)
}

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
	// SweepReport is a run's outcome: every point in expansion order plus
	// cache accounting.
	SweepReport = sweep.Report
	// SweepCache is the content-addressed on-disk store of point results
	// that makes sweeps resumable.
	SweepCache = sweep.Cache
)

// Axis constructors for declaring sweep grids.
var (
	SweepInt64Axis = sweep.Int64Axis
	SweepIntAxis   = sweep.IntAxis
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
	// ServiceClient is the Go client of the antsimd HTTP API.
	ServiceClient = service.Client
	// JobSpec describes one experiment job: a registered sweep or a
	// single scenario configuration plus parameters.
	JobSpec = service.JobSpec
)

// JobKindScenario is the JobSpec.Kind of a single scenario run.
const JobKindScenario = service.KindScenario

// NewService builds and starts a simulation service: the worker pool is
// running and Submit is immediately usable. Expose it over HTTP with
// Service.Handler.
func NewService(cfg ServiceConfig) (*Service, error) {
	return service.New(cfg)
}

// NewServiceClient returns a client for the antsimd daemon at baseURL
// (e.g. "http://127.0.0.1:8080").
func NewServiceClient(baseURL string) *ServiceClient {
	return service.NewClient(baseURL)
}

// Distributed grid execution (the cluster layer, DESIGN.md §8).
type (
	// Cluster is a coordinator over a fixed antsimd worker fleet; its
	// Dispatch method runs a grid, named by a shard JobSpec without
	// points, across the fleet and merges artifacts byte-identical to a
	// local run.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a Cluster: fleet URLs, shard size,
	// coordinator cache, heartbeat policy.
	ClusterConfig = cluster.Config
)

// NewCluster validates the fleet and returns a coordinator for
// distributed sweep and synthesis runs.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(cfg)
}

// Automata synthesis (internal/synth, DESIGN.md §11).
type (
	// SynthConfig parameterizes one synthesis search (state-budget range,
	// generations, population, seed, scoring).
	SynthConfig = synth.Config
	// SynthEvaluator scores candidate batches; the search is agnostic to
	// where the kernels run.
	SynthEvaluator = synth.Evaluator
	// SynthResult is a search outcome: the best machine per state budget,
	// byte-stable across reruns, shard counts, fleets, and resumes.
	SynthResult = synth.Result
	// SynthLocalEvaluator scores candidates in-process through the sweep
	// layer and its cache.
	SynthLocalEvaluator = synth.LocalEvaluator
)

// Synthesize runs the design-space search: per state budget, a (1+λ)
// annealing loop over mutated machine specs, batch-scored by ev.
func Synthesize(ctx context.Context, cfg SynthConfig, ev SynthEvaluator) (*SynthResult, error) {
	return synth.Search(ctx, cfg, ev)
}
