package experiment

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// s2 is a supplementary robustness sweep: every registered scenario preset
// that runs on the asynchronous engine (restricted sectors, torus wraparound, obstacle fields, multi-target
// placements, agent faults) crossed with a paper algorithm and the
// random-walk baseline. The paper's bounds are proved for the open plane;
// this grid shows where they degrade gracefully (wraparound, extra
// targets, delayed starts) and where the world actually bites (sector
// walls, obstacle walls, crashes). Because scenarios are canonical spec
// strings, the grid is a plain string axis — any future preset joins the
// sweep by registering itself.
func s2() Experiment {
	return Experiment{
		ID:    "S2",
		Title: "Supplementary: scenario robustness across worlds and fault models",
		Claim: "robustness discussion — behavior beyond the open-plane model",
		Run:   runS2,
	}
}

func runS2(cfg Config) ([]*Table, error) {
	tables, _, err := RunSweep(s2Sweep(), cfg, nil)
	return tables, err
}

// s2Sweep declares S2 as a grid over (scenario, algorithm) with D and n as
// fixed axes, running on the internal/sweep layer like E1/E5/S1.
func s2Sweep() SweepSpec {
	return SweepSpec{
		Name:   "s2",
		Title:  "Supplementary: scenario robustness across worlds and fault models",
		Grid:   s2Grid,
		Point:  s2Point,
		Tables: s2Tables,
	}
}

func s2Grid(cfg Config) sweep.Grid {
	d := int64(32)
	trials := 12
	var specs []string
	if cfg.Quick {
		d = 16
		trials = 4
		specs = []string{"open", "quadrant", "torus", "ring", "crash"}
	} else {
		specs = asyncPresets(d)
	}
	return sweep.Grid{
		Name:    "s2-scenarios",
		Version: 1,
		Axes: []sweep.Axis{
			sweep.StringAxis("scenario", specs...),
			sweep.StringAxis("algo", "non-uniform", "random-walk"),
			sweep.Int64Axis("D", d),
			sweep.IntAxis("n", 4),
		},
		Trials: trials,
	}
}

// asyncPresets returns the registered preset names whose scenario at
// distance d runs on the asynchronous engine that s2Point uses: a
// rounds-only preset (heterogeneous colony, adaptive adversary) has no
// async run to put in a row. A preset that fails to build stays, so its
// point names the error.
func asyncPresets(d int64) []string {
	var names []string
	for _, name := range scenario.Names() {
		if scn, err := scenario.Build(name, d); err == nil && scn.RoundsOnly() {
			continue
		}
		names = append(names, name)
	}
	return names
}

// s2Point runs one (scenario, algo) cell: trials of the algorithm against
// the scenario's fixed target set, world and fault model. The per-point
// seed mixes every parameter (hashing the string axes) so results never
// depend on expansion order.
func s2Point(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
	b := p.Bind()
	r := ScenarioRun{Scenario: b.Str("scenario"), Algo: b.Str("algo"), D: b.Int64("D"), N: b.Int("n"), Ell: 1}
	if err := b.Err(); err != nil {
		return nil, err
	}
	r.Budget = uint64(r.D*r.D) * 512
	_, cfg, factory, _, err := r.Build(ctx.Workers)
	if err != nil {
		return nil, err
	}
	st, err := sim.RunTrials(cfg, factory, ctx.Trials, s2Seed(ctx.Seed, r.Scenario, r.Algo, r.D, r.N))
	if err != nil {
		return nil, err
	}
	return &sweep.Result{
		Samples: st.Moves,
		Values:  map[string]float64{"found_frac": st.FoundFrac},
	}, nil
}

// s2Seed derives the point seed with an FNV-1a fold over the string axes
// plus the numeric ones, matching the determinism contract of the sweep
// layer (never order-dependent).
func s2Seed(root uint64, spec, algo string, d int64, n int) uint64 {
	h := root ^ 0xcbf29ce484222325
	for _, b := range []byte(spec + "|" + algo) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h + uint64(d)*100 + uint64(n)
}

func s2Tables(rep *sweep.Report) ([]*Table, error) {
	if len(rep.Points) == 0 {
		return nil, fmt.Errorf("experiment: S2 report has no points")
	}
	b := rep.Points[0].Point.Bind()
	d := b.Int64("D")
	n := b.Int("n")
	if err := b.Err(); err != nil {
		return nil, err
	}
	table := &Table{
		Title:   fmt.Sprintf("S2: scenario robustness (D = %d, n = %d, budget 512·D²)", d, n),
		Columns: []string{"scenario", "algo", "trials", "found_frac", "mean_moves", "median_moves"},
	}
	for _, pr := range rep.Points {
		spec, _ := pr.Point.Value("scenario")
		algo, _ := pr.Point.Value("algo")
		ff := pr.Result.Values["found_frac"]
		mean, median := "-", "-"
		if len(pr.Result.Samples) > 0 {
			s, err := stats.Summarize(pr.Result.Samples)
			if err != nil {
				return nil, err
			}
			mean = trimFloat(s.Mean)
			median = trimFloat(s.Median)
		}
		table.AddRow(spec, algo, rep.Grid.Trials, ff, mean, median)
	}
	table.Notes = append(table.Notes,
		"open-plane bounds transfer to wraparound and multi-target scenarios; sector and obstacle walls cost budget on blocked moves",
		"found_frac < 1 under crash faults is the fault model working, not a solver bug")
	return []*Table{table}, nil
}
