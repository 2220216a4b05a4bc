package experiment

import (
	"strconv"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// ScenarioRun is one configuration of `antsim -scenario` or a scenario job.
type ScenarioRun struct {
	Scenario, Algo string
	D              int64
	N              int
	Ell            uint
	Budget         uint64
}

// Build resolves the run into its scenario, the engine config on it with
// the given worker bound, the program factory and the χ audit.
func (r ScenarioRun) Build(workers int) (scenario.Scenario, sim.Config, sim.Factory, string, error) {
	scn, err := scenario.Build(r.Scenario, r.D)
	if err != nil {
		return scn, sim.Config{}, nil, "", err
	}
	factory, audit, err := BuildAlgorithm(r.Algo, r.D, r.N, r.Ell)
	return scn, scn.Apply(sim.Config{NumAgents: r.N, MoveBudget: r.Budget, Workers: workers}), factory, audit, err
}

// Grid is the run as a grid with one point per trial: a one-valued axis
// per input, so a point's cache key covers all its result depends on, and
// a trial axis 0…trials−1 (trial t depends on the seed, not on trials).
func (r ScenarioRun) Grid(trials int) sweep.Grid {
	ts := make([]int, max(trials, 0))
	for t := range ts {
		ts[t] = t
	}
	return sweep.Grid{Name: "scenario-trials", Version: 1, Axes: []sweep.Axis{
		sweep.StringAxis("scenario", r.Scenario),
		sweep.StringAxis("algo", r.Algo),
		sweep.Int64Axis("D", r.D),
		sweep.IntAxis("n", r.N),
		sweep.UintAxis("ell", r.Ell),
		sweep.StringAxis("budget", strconv.FormatUint(r.Budget, 10)),
		sweep.IntAxis("trial", ts...),
	}}
}

// Trial is the kernel of r's grid: trial p.Index (the one axis with many
// values is the trial) as sim.RunTrials runs it, the engine over
// ctx.Workers. Values["found"] is 1 or 0; a found trial adds its M_moves
// as the one sample and its M_steps as Values["steps"].
func (r ScenarioRun) Trial(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
	_, cfg, factory, _, err := r.Build(ctx.Workers)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunTrial(cfg, factory, ctx.Seed, p.Index)
	if err != nil {
		return nil, err
	}
	out := &sweep.Result{Values: map[string]float64{"found": 0}}
	if res.Found {
		out.Samples = []float64{float64(res.MinMoves)}
		out.Values["found"], out.Values["steps"] = 1, float64(res.MinSteps)
	}
	return out, nil
}

// FoldTrials folds a ScenarioRun grid's points, in trial order, into the
// TrialStats sim.RunTrials reports for the same run and seed.
func FoldTrials(points []sweep.PointResult) *sim.TrialStats {
	st := &sim.TrialStats{Trials: len(points)}
	for _, pr := range points {
		if pr.Result.Values["found"] == 1 {
			st.Moves = append(st.Moves, pr.Result.Samples...)
			st.Steps = append(st.Steps, pr.Result.Values["steps"])
		}
	}
	st.FoundFrac = float64(len(st.Moves)) / float64(len(points))
	st.FoundAll = len(st.Moves) == len(points)
	return st
}
