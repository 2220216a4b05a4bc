package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// EvalGridName and EvalGridVersion identify the candidate-evaluation grid
// in cache keys and shard artifacts. Bump the version whenever Kernel's
// semantics change.
const (
	EvalGridName    = "synth-eval"
	EvalGridVersion = 1
)

// EvalConfig parameterizes candidate scoring: each candidate is simulated
// at every distance in Ds against its own adversarial target placement.
type EvalConfig struct {
	// Ds are the target distances of the hit-time curve.
	Ds []int64 `json:"ds"`
	// Agents is the colony size n (the bound compares against D²/n + D).
	Agents int `json:"agents"`
	// Trials is the per-point trial count.
	Trials int `json:"trials"`
	// BudgetFactor caps each agent at BudgetFactor·D² moves (and 4× that
	// many Markov steps, so machines that rarely move still halt).
	BudgetFactor float64 `json:"budget_factor"`
}

// WithDefaults fills zero fields with the synthesis defaults: distances
// {8, 16}, 4 agents, 32 trials, an 8·D² move budget. Quick halves the
// work for smoke runs: distances {4, 8} and 12 trials.
func (c EvalConfig) WithDefaults(quick bool) EvalConfig {
	if len(c.Ds) == 0 {
		if quick {
			c.Ds = []int64{4, 8}
		} else {
			c.Ds = []int64{8, 16}
		}
	}
	if c.Agents == 0 {
		c.Agents = 4
	}
	if c.Trials == 0 {
		if quick {
			c.Trials = 12
		} else {
			c.Trials = 32
		}
	}
	if c.BudgetFactor == 0 {
		c.BudgetFactor = 8
	}
	return c
}

// Validate rejects configs the kernel cannot run.
func (c EvalConfig) Validate() error {
	if len(c.Ds) == 0 {
		return fmt.Errorf("synth: eval config needs at least one distance")
	}
	for _, d := range c.Ds {
		if d < 1 {
			return fmt.Errorf("synth: eval distance %d must be positive", d)
		}
	}
	if c.Agents < 1 {
		return fmt.Errorf("synth: eval config needs agents ≥ 1, got %d", c.Agents)
	}
	if c.Agents > sim.MaxAgents {
		return fmt.Errorf("synth: eval config agents: %w: %d, at most %d", sim.ErrTooManyAgents, c.Agents, sim.MaxAgents)
	}
	if c.Trials < 1 {
		return fmt.Errorf("synth: eval config needs trials ≥ 1, got %d", c.Trials)
	}
	if !(c.BudgetFactor > 0) {
		return fmt.Errorf("synth: eval config needs budget factor > 0, got %v", c.BudgetFactor)
	}
	return nil
}

// EvalGrid declares the sweep grid scoring one batch of candidate specs:
// the cartesian product of the candidates (canonical compact JSON, outer
// axis) and the curve distances (inner axis), with the colony size and
// budget factor as fixed parameters. Because a candidate's JSON is an
// axis value, it is part of every cache key: the same machine evaluated
// in any batch, generation, or fleet hits the same cache entry.
func EvalGrid(specs []string, cfg EvalConfig) sweep.Grid {
	return sweep.Grid{
		Name:    EvalGridName,
		Version: EvalGridVersion,
		Axes: []sweep.Axis{
			sweep.StringAxis("spec", specs...),
			sweep.Int64Axis("d", cfg.Ds...),
			sweep.IntAxis("agents", cfg.Agents),
			sweep.Float64Axis("budget_factor", cfg.BudgetFactor),
		},
		Trials: cfg.Trials,
	}
}

// Kernel scores one (candidate, distance) grid point: build the machine,
// place the target adversarially against the machine's own drift-line
// prediction (falling back to the ball corner for machines the Markov
// analysis rejects), run the trials, and report the expected hit moves —
// budget-censored — as a ratio over the D²/n + D lower bound. The
// per-point seed mixes the sweep seed with the candidate JSON and the
// distance, so a point's result never depends on batch composition or
// expansion order. Kernel is total on buildable specs: degenerate
// machines score badly instead of erroring, so one broken mutant cannot
// abort a search.
func Kernel(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
	b := p.Bind()
	specJSON := b.Str("spec")
	d := b.Int64("d")
	agents := b.Int("agents")
	factor := b.Float64("budget_factor")
	if err := b.Err(); err != nil {
		return nil, err
	}
	spec, err := SpecFromJSON(specJSON)
	if err != nil {
		return nil, err
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}

	target := grid.Point{X: d, Y: d}
	if pred, err := lowerbound.Predict(m); err == nil {
		if t, err := pred.AdversarialTarget(d); err == nil {
			target = t
		}
	}

	moveBudget := uint64(math.Round(factor * float64(d) * float64(d)))
	if moveBudget < 1 {
		moveBudget = 1
	}
	// 4× steps per move of slack: machines that mostly compute (none
	// labels) still halt, machines that mostly move are not constrained.
	factory, err := sim.MachineFactory(m, 4*moveBudget)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		NumAgents:  agents,
		Target:     target,
		HasTarget:  true,
		MoveBudget: moveBudget,
		Workers:    ctx.Workers,
	}
	st, err := sim.RunTrials(cfg, factory, ctx.Trials, pointSeed(ctx.Seed, specJSON, d))
	if err != nil {
		return nil, err
	}

	bound := float64(d)*float64(d)/float64(agents) + float64(d)
	mean := 0.0
	for _, v := range st.Moves {
		mean += v
	}
	if len(st.Moves) > 0 {
		mean /= float64(len(st.Moves))
	}
	// Budget-censored expectation: trials that never found the target
	// count the full budget. It keeps the score total and monotone — a
	// machine that finds nothing scores factor·D²/bound, not infinity.
	expected := st.FoundFrac*mean + (1-st.FoundFrac)*float64(moveBudget)
	return &sweep.Result{
		Samples: st.Moves,
		Values: map[string]float64{
			"found_frac":     st.FoundFrac,
			"mean_moves":     mean,
			"expected_moves": expected,
			"bound":          bound,
			"ratio":          expected / bound,
			"target_x":       float64(target.X),
			"target_y":       float64(target.Y),
			"states":         float64(m.NumStates()),
			"chi":            m.Chi(),
		},
	}, nil
}

// pointSeed derives the kernel seed for one (candidate, distance) point:
// the sweep seed mixed with an FNV-1a hash of the candidate's canonical
// JSON and the distance. Identity comes from the candidate itself, so
// cache entries written by a cancelled search, a different shard split,
// or a remote worker all agree.
func pointSeed(seed uint64, specJSON string, d int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(specJSON))
	return seed ^ h.Sum64() ^ (uint64(d) * 0x9e3779b97f4a7c15)
}

// CurvePoint is one distance of a candidate's hit-time curve.
type CurvePoint struct {
	// D is the target distance.
	D int64 `json:"d"`
	// FoundFrac is the fraction of trials that found the target.
	FoundFrac float64 `json:"found_frac"`
	// MeanMoves is the mean hit moves of the successful trials.
	MeanMoves float64 `json:"mean_moves"`
	// ExpectedMoves is the budget-censored expectation the score uses.
	ExpectedMoves float64 `json:"expected_moves"`
	// Bound is the paper's lower bound D²/n + D at this distance.
	Bound float64 `json:"bound"`
	// Ratio is ExpectedMoves / Bound (1 would meet the bound).
	Ratio float64 `json:"ratio"`
}

// Curve is one candidate's evaluation: its hit-time curve over the
// configured distances and the scalar score the search minimizes.
type Curve struct {
	// Spec is the candidate's canonical compact JSON.
	Spec string `json:"spec"`
	// Points is the curve, one entry per EvalConfig distance in order.
	Points []CurvePoint `json:"points"`
	// Score is the mean Ratio across distances (lower is better).
	Score float64 `json:"score"`
}

// CurvesFromResults folds the point results of one EvalGrid run — local
// or merged from a fleet — back into per-candidate curves, in specs
// order. Local and distributed evaluation share this fold, which is what
// makes their curves (and so the search trajectories above them)
// identical.
func CurvesFromResults(specs []string, cfg EvalConfig, prs []sweep.PointResult) ([]*Curve, error) {
	perSpec := len(cfg.Ds)
	if want := len(specs) * perSpec; len(prs) != want {
		return nil, fmt.Errorf("synth: %d point results for %d candidates × %d distances", len(prs), len(specs), perSpec)
	}
	curves := make([]*Curve, len(specs))
	for i, spec := range specs {
		c := &Curve{Spec: spec, Points: make([]CurvePoint, perSpec)}
		for j := 0; j < perSpec; j++ {
			pr := prs[i*perSpec+j]
			if got, _ := pr.Point.Value("spec"); got != spec {
				return nil, fmt.Errorf("synth: point %d evaluates %q, want candidate %d", pr.Point.Index, got, i)
			}
			if pr.Result == nil {
				return nil, fmt.Errorf("synth: point %d has no result", pr.Point.Index)
			}
			v := pr.Result.Values
			c.Points[j] = CurvePoint{
				D:             cfg.Ds[j],
				FoundFrac:     v["found_frac"],
				MeanMoves:     v["mean_moves"],
				ExpectedMoves: v["expected_moves"],
				Bound:         v["bound"],
				Ratio:         v["ratio"],
			}
			c.Score += v["ratio"]
		}
		c.Score /= float64(perSpec)
		curves[i] = c
	}
	return curves, nil
}

// Evaluator scores a batch of candidate specs (canonical compact JSON,
// no duplicates) and returns one curve per candidate, in order. The
// search is agnostic to where the kernels run: LocalEvaluator computes
// in-process, cluster.SynthEvaluator fans the batch out as shard jobs
// over an inline evaluation grid. Implementations must be deterministic in (batch, seed) — the
// curves may never depend on shard count or cache state.
type Evaluator interface {
	Evaluate(ctx context.Context, specs []string) ([]*Curve, error)
}

// LocalEvaluator scores candidates in-process through sweep.Run: every
// evaluation is a cache point under Cache (content-addressed by the
// candidate's JSON), so an interrupted search resumes without
// recomputing and a warm re-run executes zero kernels.
type LocalEvaluator struct {
	// Eval is the scoring configuration (use WithDefaults).
	Eval EvalConfig
	// Seed is the evaluation seed; it must equal the search seed.
	Seed uint64
	// Shards bounds concurrent points (0 = GOMAXPROCS). Curves never
	// depend on it.
	Shards int
	// Cache, when non-nil, memoizes every scored point; Resume serves
	// existing entries instead of recomputing.
	Cache  *sweep.Cache
	Resume bool
	// Progress, when non-nil, receives one event per finished point.
	Progress func(sweep.Progress)

	kernelCalls atomic.Int64
}

// Evaluate implements Evaluator.
func (e *LocalEvaluator) Evaluate(ctx context.Context, specs []string) ([]*Curve, error) {
	g := EvalGrid(specs, e.Eval)
	fn := func(p sweep.Point, c sweep.Ctx) (*sweep.Result, error) {
		e.kernelCalls.Add(1)
		return Kernel(p, c)
	}
	rep, err := sweep.RunContext(ctx, g, fn, sweep.Options{
		Seed:   e.Seed,
		Shards: e.Shards,
		// Points are the parallelism; each point's engines run
		// single-threaded, mirroring the sweep layer's convention.
		Workers:  1,
		Cache:    e.Cache,
		Resume:   e.Resume,
		Progress: e.Progress,
	})
	if err != nil {
		return nil, err
	}
	return CurvesFromResults(specs, e.Eval, rep.Points)
}

// KernelCalls reports how many kernel executions (cache misses) this
// evaluator has performed — the resume tests' zero-recompute oracle.
func (e *LocalEvaluator) KernelCalls() int64 { return e.kernelCalls.Load() }
