// Package service is the simulation-as-a-service layer behind cmd/antsimd:
// a long-running daemon core that accepts experiment jobs over HTTP/JSON,
// executes them on a bounded worker pool reusing the sweep orchestration
// layer (internal/sweep) and its content-addressed cache, streams per-point
// progress as NDJSON or SSE, and serves durable result artifacts that are
// byte-identical to what the equivalent antsim CLI invocation emits.
//
// The moving parts:
//
//   - JobSpec names the work, one of three kinds: a registered sweep
//     (internal/experiment), a single scenario configuration
//     (internal/scenario) run as a grid over its trials, or a shard:
//     points of one grid, which is a registered sweep or an inline
//     synthesis evaluation grid (internal/synth). Shards are the worker
//     half of distributed runs (internal/cluster).
//   - Job is the lifecycle record: queued → running → done | failed |
//     cancelled, with progress counters and timestamps.
//   - Service owns the queue, the worker pool, the per-job event logs and
//     the finished artifacts; Handler exposes it as an http.Handler over
//     the routes in RouteTable.
//   - Client is the Go client of that HTTP API, used by the tests, the
//     facade examples and cmd/antsimd's smoke tooling.
//
// Determinism contract: a job's result artifacts are a function of its
// normalized spec only — never of queue position, worker count, cache
// state, or whether the job ran in a daemon or as a CLI invocation. The
// CSV artifact is byte-stable; the JSON artifact additionally carries
// timing and cache-provenance metadata (see DESIGN.md §7).
package service

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// JobState is one station of the job lifecycle state machine.
type JobState string

// The job lifecycle states. Transitions: queued → running → done | failed;
// queued → cancelled (cancel or shutdown before a worker claims the job);
// running → cancelled (cancel or shutdown drain timeout — observed at the
// next grid-point boundary, whatever the kind: every kind runs as a grid,
// and a scenario job's points are its trials). done, failed and cancelled
// are terminal.
const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: claimed by a worker and executing.
	StateRunning JobState = "running"
	// StateDone: finished successfully; artifacts are available.
	StateDone JobState = "done"
	// StateFailed: the kernel returned an error; Job.Error has it.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled before completion (client cancel or
	// daemon shutdown); no artifacts.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final (done, failed or cancelled).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds accepted by JobSpec.Kind.
const (
	// KindSweep runs a registered experiment grid (internal/experiment)
	// through the sweep layer, exactly like `antsim -sweep`.
	KindSweep = "sweep"
	// KindScenario runs one scenario configuration (internal/scenario),
	// exactly like `antsim -scenario`, as an inline grid with one point
	// per trial. Rounds-only presets are refused (ErrRoundsOnlyScenario).
	KindScenario = "scenario"
	// KindShard runs points of one grid, identified by expansion index:
	// a registered sweep's grid (Sweep), or the synthesis evaluation grid
	// over an inline batch of candidate machine specs (SynthSpecs). It is
	// the worker half of distributed sweeps and machine synthesis
	// (internal/cluster): a coordinator ships shards of cache-miss
	// points, the worker computes exactly those points (serving its own
	// cache hits without recomputing) and returns per-point results.
	KindShard = "shard"
)

// maxWorkers bounds JobSpec.Workers. A scenario job's engine starts up
// to min(workers, n) goroutines per trial, with n up to sim.MaxAgents, so
// the bound keeps a spec from asking for millions of them. It is a fixed
// constant, not the host's core count, so a coordinator and its workers
// accept the same specs.
const maxWorkers = 1024

// maxTrials bounds a scenario job's Trials, fixed like maxWorkers: each
// trial is a grid point, an event and a WAL record, and Validate expands
// the grid, so the bound caps what a submission allocates.
const maxTrials = 1 << 16

// inlineSynth is the sweep id a shard artifact records for an inline
// synthesis grid. It is also the retired job kind that scored synthesis
// batches before they became shard jobs; Normalize maps it to KindShard.
const inlineSynth = "synth"

// JobSpec describes one experiment job. Kind selects which of the three
// kinds the spec names; the remaining fields parameterize it. The zero
// values of the optional fields are filled in by Normalize with the same
// defaults the antsim CLI uses, so a spec submitted over the wire and the
// equivalent CLI invocation describe identical computations.
type JobSpec struct {
	// Kind is KindSweep, KindScenario or KindShard.
	Kind string `json:"kind"`

	// Sweep is the registered sweep id ("e1", "e5", "s1", "s2", "s3");
	// KindSweep and KindShard (a shard names either Sweep or SynthSpecs).
	Sweep string `json:"sweep,omitempty"`
	// Quick shrinks the sweep's grid and trial counts (antsim -quick);
	// KindSweep and KindShard over a registered sweep.
	Quick bool `json:"quick,omitempty"`
	// Points are the grid-point expansion indexes a shard job computes
	// (unique, each in [0, grid size); empty means every point);
	// KindShard only.
	Points []int `json:"points,omitempty"`

	// Scenario is the scenario spec string ("torus:l=48", "crash", ...);
	// KindScenario only.
	Scenario string `json:"scenario,omitempty"`
	// Algo names the algorithm to run on the scenario (see
	// experiment.AlgorithmNames; default "non-uniform"); KindScenario only.
	Algo string `json:"algo,omitempty"`
	// D is the nominal target distance (default 64); KindScenario only.
	D int64 `json:"d,omitempty"`
	// N is the agent count (default 4, at most sim.MaxAgents);
	// KindScenario only.
	N int `json:"n,omitempty"`
	// Ell is the base-coin precision ℓ (default 1); KindScenario only.
	Ell uint `json:"ell,omitempty"`
	// Budget is the per-agent move budget (default 512·D²); KindScenario
	// only.
	Budget uint64 `json:"budget,omitempty"`
	// Trials is the number of independent trials (scenario default 20, at
	// most 65536; inline synth grid default 32); KindScenario and
	// KindShard over an inline synth grid.
	Trials int `json:"trials,omitempty"`

	// SynthSpecs are the candidate machine specs of an inline synthesis
	// evaluation grid, as canonical compact JSON (synth.CompactJSON), no
	// duplicates; KindShard only, instead of Sweep. The grid's points are
	// the (candidate, distance) cells.
	SynthSpecs []string `json:"synth_specs,omitempty"`
	// SynthDs are the hit-time curve distances (default {8, 16}); inline
	// synth grid only.
	SynthDs []int64 `json:"synth_ds,omitempty"`
	// SynthAgents is the colony size n the bound compares against
	// (default 4); inline synth grid only.
	SynthAgents int `json:"synth_agents,omitempty"`
	// SynthBudgetFactor caps each agent at factor·D² moves (default 8);
	// inline synth grid only.
	SynthBudgetFactor float64 `json:"synth_budget_factor,omitempty"`

	// Seed is the root random seed (default 0; pass the CLI's -seed value
	// to reproduce a CLI run).
	Seed uint64 `json:"seed"`
	// Workers bounds the job's internal concurrency, never its results:
	// concurrent grid points for KindSweep and KindShard, engine workers
	// for KindScenario, one trial at a time (0 = GOMAXPROCS, at most 1024).
	Workers int `json:"workers,omitempty"`
}

// Normalize fills the spec's zero-valued optional fields with the antsim
// CLI defaults, so that validation, execution and the stored job record
// all see the same fully explicit spec. Seed is the one exception: 0 is a
// valid seed and stays 0 (the CLI's -seed flag defaults to 1), so
// reproducing a CLI run requires passing its seed explicitly. The
// retired kind "synth" becomes KindShard here, the one place old clients
// and old data directories are mapped onto the current kinds.
func (s *JobSpec) Normalize() {
	if s.Kind == inlineSynth {
		s.Kind = KindShard
	}
	// An empty list means what an absent one does; keep the absent form,
	// which is also what the WAL's encoding (omitempty) replays.
	if len(s.Points) == 0 {
		s.Points = nil
	}
	if len(s.SynthSpecs) == 0 {
		s.SynthSpecs = nil
	}
	if len(s.SynthDs) == 0 {
		s.SynthDs = nil
	}
	if s.SynthSpecs != nil {
		// One source of truth for the synthesis defaults: the stored spec
		// matches what synth.EvalConfig.WithDefaults would compute.
		ec := s.synthEval().WithDefaults(false)
		s.SynthDs = ec.Ds
		s.SynthAgents = ec.Agents
		s.Trials = ec.Trials
		s.SynthBudgetFactor = ec.BudgetFactor
	}
	if s.Kind == KindScenario {
		s.Algo = cmp.Or(s.Algo, "non-uniform")
		s.D = cmp.Or(s.D, 64)
		s.N = cmp.Or(s.N, 4)
		s.Ell = cmp.Or(s.Ell, 1)
		s.Trials = cmp.Or(s.Trials, 20)
		s.Budget = cmp.Or(s.Budget, experiment.DefaultMoveBudget(s.D))
	}
}

// Validate checks the (normalized) spec against the registries it names:
// every kind's grid must resolve (Grid) and its candidate machines build,
// a shard's points must lie in the grid, the scenario spec must build in
// internal/scenario on the asynchronous engine, and the algorithm name
// must resolve. It reports the first problem found.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindSweep, KindShard:
		if s.Scenario != "" || s.Algo != "" || s.D != 0 || s.N != 0 || s.Ell != 0 || s.Budget != 0 {
			return fmt.Errorf("service: %s job sets scenario-only fields", s.Kind)
		}
		if s.Kind == KindSweep && (len(s.Points) != 0 || len(s.SynthSpecs) != 0) {
			return fmt.Errorf("service: sweep job sets shard-only fields points or synth_specs (use kind %q)", KindShard)
		}
	case KindScenario:
		if s.Scenario == "" {
			return fmt.Errorf("service: scenario job needs a scenario spec (e.g. %q)", "open")
		}
		if s.Sweep != "" || s.Quick || len(s.Points) != 0 || len(s.SynthSpecs) != 0 || len(s.SynthDs) != 0 || s.SynthAgents != 0 || s.SynthBudgetFactor != 0 {
			return fmt.Errorf("service: scenario job sets sweep-only or synth-only fields")
		}
		if s.D < 1 || s.N < 1 {
			return fmt.Errorf("service: scenario job needs d ≥ 1 and n ≥ 1, got d=%d n=%d", s.D, s.N)
		}
		if s.N > sim.MaxAgents {
			return fmt.Errorf("service: scenario job n: %w: %d, at most %d", sim.ErrTooManyAgents, s.N, sim.MaxAgents)
		}
		if s.Trials < 1 {
			return fmt.Errorf("service: scenario job needs trials ≥ 1, got %d", s.Trials)
		}
		if s.Trials > maxTrials {
			return fmt.Errorf("%w: %d, at most %d", ErrTooManyTrials, s.Trials, maxTrials)
		}
		scn, _, _, _, err := s.scenarioRun().Build(0)
		if err != nil {
			return err
		}
		if scn.RoundsOnly() {
			return fmt.Errorf("%w: %q", ErrRoundsOnlyScenario, scn.Spec)
		}
	case "":
		return fmt.Errorf("service: job spec needs a kind (%q, %q or %q)", KindSweep, KindScenario, KindShard)
	default:
		return fmt.Errorf("service: unknown job kind %q (valid: %q, %q, %q)", s.Kind, KindSweep, KindScenario, KindShard)
	}
	if s.Workers < 0 || s.Workers > maxWorkers {
		return fmt.Errorf("service: workers must be in [0, %d], got %d", maxWorkers, s.Workers)
	}
	g, _, _, err := s.Grid()
	if err != nil {
		return err
	}
	// Catches repeated candidates and distances of an inline grid.
	if err := g.Validate(); err != nil {
		return err
	}
	for i, cs := range s.SynthSpecs {
		spec, err := synth.SpecFromJSON(cs)
		if err == nil {
			_, err = spec.Build()
		}
		if err != nil {
			return fmt.Errorf("service: synth candidate %d: %w", i, err)
		}
	}
	size := g.Size()
	seen := make(map[int]bool, len(s.Points))
	for _, idx := range s.Points {
		if idx < 0 || idx >= size {
			return fmt.Errorf("service: shard point index %d out of range [0,%d) of grid %q", idx, size, g.Name)
		}
		if seen[idx] {
			return fmt.Errorf("service: shard point index %d listed twice", idx)
		}
		seen[idx] = true
	}
	return nil
}

// Grid resolves the grid a job runs: a scenario job's inline grid over its
// trials, the registered sweep Sweep names or, when SynthSpecs is set, the
// synthesis evaluation grid over those candidates. It returns the expanded
// grid, the kernel that computes one of its points, and the sweep id the
// shard artifact records ("synth" for an inline synth grid). Validate, the
// grid executor and the cluster coordinator all resolve grids here, so a
// coordinator and its workers expand identical grids.
func (s JobSpec) Grid() (sweep.Grid, sweep.PointFunc, string, error) {
	if s.Kind == KindScenario {
		run := s.scenarioRun()
		return run.Grid(s.Trials), run.Trial, KindScenario, nil
	}
	if len(s.SynthSpecs) != 0 {
		if s.Sweep != "" || s.Quick {
			return sweep.Grid{}, nil, "", fmt.Errorf("service: %s job names both synth_specs and a sweep", s.Kind)
		}
		ec := s.synthEval()
		if err := ec.Validate(); err != nil {
			return sweep.Grid{}, nil, "", err
		}
		return synth.EvalGrid(s.SynthSpecs, ec), synth.Kernel, inlineSynth, nil
	}
	if s.Sweep == "" {
		return sweep.Grid{}, nil, "", fmt.Errorf("service: %s job needs a sweep id or inline synth_specs", s.Kind)
	}
	if s.Trials != 0 || len(s.SynthDs) != 0 || s.SynthAgents != 0 || s.SynthBudgetFactor != 0 {
		return sweep.Grid{}, nil, "", fmt.Errorf("service: %s job over sweep %q sets inline-grid fields (trials, synth_*)", s.Kind, s.Sweep)
	}
	sp, err := experiment.LookupSweep(s.Sweep)
	if err != nil {
		return sweep.Grid{}, nil, "", err
	}
	return sp.Grid(experiment.Config{Quick: s.Quick}), sp.Point, sp.Name, nil
}

// scenarioRun assembles the configuration of a scenario job.
func (s JobSpec) scenarioRun() experiment.ScenarioRun {
	return experiment.ScenarioRun{Scenario: s.Scenario, Algo: s.Algo, D: s.D, N: s.N, Ell: s.Ell, Budget: s.Budget}
}

// synthEval assembles the evaluation config of an inline synth grid.
func (s JobSpec) synthEval() synth.EvalConfig {
	return synth.EvalConfig{
		Ds:           s.SynthDs,
		Agents:       s.SynthAgents,
		Trials:       s.Trials,
		BudgetFactor: s.SynthBudgetFactor,
	}
}

// Job is the public record of one submitted job: the normalized spec, the
// lifecycle state, progress counters and timestamps. Values returned by
// the Service and the Client are snapshots — they do not change after
// being handed out.
type Job struct {
	// ID is the service-assigned job id ("j000001", ...).
	ID string `json:"id"`
	// Spec is the normalized job spec.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle state at snapshot time.
	State JobState `json:"state"`
	// Error holds the failure (or cancellation) message for terminal
	// failed/cancelled states.
	Error string `json:"error,omitempty"`
	// Done counts finished work units: grid points, which for scenario
	// jobs are trials.
	Done int `json:"done"`
	// Total is the job's total work units, set when the job starts
	// running (0 while queued).
	Total int `json:"total"`
	// CacheHits counts the grid points served from the content-addressed
	// cache.
	CacheHits int `json:"cache_hits"`
	// CreatedAt timestamps the submission.
	CreatedAt time.Time `json:"created_at"`
	// StartedAt timestamps the queued → running transition (zero until
	// then).
	StartedAt time.Time `json:"started_at,omitzero"`
	// FinishedAt timestamps the transition to a terminal state (zero
	// until then).
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// Event types delivered on a job's event stream.
const (
	// EventState announces a lifecycle transition; Event.State has the
	// new state and, for terminal failures, Event.Error the message.
	EventState = "state"
	// EventPoint announces one finished work unit (a grid point; one
	// trial of a scenario job), with Done/Total progress counters.
	EventPoint = "point"
	// EventTotal announces the job's total work units as soon as the
	// executor knows them — before the first point finishes — so stream
	// consumers (and log replay) learn the denominator even for a job
	// that fails before producing any point.
	EventTotal = "total"
)

// Event is one entry of a job's append-only event log. Streams replay the
// log from the beginning and then follow it live, so a late subscriber
// sees exactly the same sequence as an early one.
type Event struct {
	// Seq is the event's position in the job's log, starting at 0.
	Seq int `json:"seq"`
	// Job is the owning job's id.
	Job string `json:"job"`
	// Type is EventState, EventPoint or EventTotal.
	Type string `json:"type"`
	// State carries the new lifecycle state for EventState events.
	State JobState `json:"state,omitempty"`
	// Error carries the failure message of terminal failed/cancelled
	// EventState events.
	Error string `json:"error,omitempty"`
	// Done carries the finished-work-unit counter for EventPoint events.
	// Under parallel sweep shards, consecutive log entries may carry
	// out-of-order counters; the job record's Done is monotonic.
	Done int `json:"done,omitempty"`
	// Total carries the total-work-unit counter for EventPoint and
	// EventTotal events.
	Total int `json:"total,omitempty"`
	// Point renders the finished grid point ("D=8 n=4") for EventPoint
	// events.
	Point string `json:"point,omitempty"`
	// Cached reports whether the point was served from the sweep cache.
	Cached bool `json:"cached,omitempty"`
}
