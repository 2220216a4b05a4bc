package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// e5 reproduces Theorem 3.14: the uniform algorithm finds a target within
// distance D in (D²/n + D)·2^{O(ℓ)} expected moves. The sweep varies D, n
// and ℓ; the ratio column is the measured overshoot over D²/n + D, which
// the theorem bounds by 2^{O(ℓ)} from above only. The notes give the mean
// ratio per ℓ and the direction those means take, read from the means
// themselves. The sweep runs as a grid on internal/sweep (see e5Sweep).
func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Uniform-Search expected moves vs (D²/n + D)·2^{O(ℓ)}",
		Claim: "Theorem 3.14",
		Run:   runE5,
	}
}

func runE5(cfg Config) ([]*Table, error) {
	tables, _, err := RunSweep(e5Sweep(), cfg, nil)
	return tables, err
}

// e5Sweep declares E5 as an experiment grid over (D, n, ℓ).
func e5Sweep() SweepSpec {
	return SweepSpec{
		Name:   "e5",
		Title:  "Uniform-Search expected moves vs (D²/n + D)·2^{O(ℓ)}",
		Grid:   e5Grid,
		Point:  e5Point,
		Tables: e5Tables,
	}
}

func e5Grid(cfg Config) sweep.Grid {
	ds := []int64{8, 16, 32, 64}
	ns := []int{1, 4, 16}
	ells := []uint{1, 2, 3}
	trials := 30
	if cfg.Quick {
		ds = []int64{8, 16}
		ns = []int{1, 4}
		ells = []uint{1, 2}
		trials = 10
	}
	return sweep.Grid{
		Name:    "e5-uniform",
		Version: 1,
		Axes: []sweep.Axis{
			sweep.Int64Axis("D", ds...),
			sweep.IntAxis("n", ns...),
			sweep.UintAxis("ell", ells...),
		},
		Trials: trials,
	}
}

// e5Point runs one (D, n, ℓ) cell: trials of Uniform-Search against a
// uniform random target in the D-ball. The per-point seed mixes D, n and ℓ
// exactly as the pre-sweep harness did, so the numbers are unchanged.
func e5Point(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
	b := p.Bind()
	d := b.Int64("D")
	n := b.Int("n")
	ell := b.Uint("ell")
	if err := b.Err(); err != nil {
		return nil, err
	}
	factory, err := search.UniformFactory(ell, n)
	if err != nil {
		return nil, err
	}
	st, err := sim.RunPlacedTrials(sim.Config{
		NumAgents:  n,
		MoveBudget: uint64(d*d) * 4096,
		Workers:    ctx.Workers,
	}, sim.PlaceUniformBall, d, factory, ctx.Trials, ctx.Seed+uint64(d)*100+uint64(n)*10+uint64(ell))
	if err != nil {
		return nil, err
	}
	if st.FoundFrac < 0.9 {
		return nil, fmt.Errorf("found fraction %v < 0.9", st.FoundFrac)
	}
	return &sweep.Result{
		Samples: st.Moves,
		Values:  map[string]float64{"found_frac": st.FoundFrac},
	}, nil
}

func e5Tables(rep *sweep.Report) ([]*Table, error) {
	table := &Table{
		Title:   "E5: Uniform-Search, uniform random target in the D-ball",
		Columns: []string{"D", "n", "ℓ", "trials", "found_frac", "mean_moves", "bound(D²/n+D)", "ratio"},
	}
	ellVals, err := axisValues(rep, "ell")
	if err != nil {
		return nil, err
	}
	// Per-ℓ mean ratios, for the notes.
	ratioSum := make(map[uint]float64)
	ratioCount := make(map[uint]int)
	for _, pr := range rep.Points {
		b := pr.Point.Bind()
		d := b.Int64("D")
		n := b.Int("n")
		ell := b.Uint("ell")
		if err := b.Err(); err != nil {
			return nil, err
		}
		mean := meanOf(pr.Result.Samples)
		bound := float64(d*d)/float64(n) + float64(d)
		ratio := mean / bound
		table.AddRow(d, n, ell, rep.Grid.Trials, pr.Result.Values["found_frac"], mean, bound, ratio)
		ratioSum[ell] += ratio
		ratioCount[ell]++
	}
	ells := make([]uint, 0, len(ellVals))
	for _, v := range ellVals {
		ell, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("experiment: bad ℓ axis value %q: %w", v, err)
		}
		ells = append(ells, uint(ell))
	}
	table.Notes = e5Notes(ells, ratioSum, ratioCount)
	return []*Table{table}, nil
}

// e5Notes gives the mean ratio for each ℓ, in axis order, and a sentence
// on the direction of those means, taken from the same numbers so the
// note cannot disagree with the table.
func e5Notes(ells []uint, ratioSum map[uint]float64, ratioCount map[uint]int) []string {
	notes := make([]string, 0, len(ells)+1)
	means := make([]float64, 0, len(ells))
	printed := make([]string, 0, len(ells))
	for _, ell := range ells {
		mean := ratioSum[ell] / float64(ratioCount[ell])
		notes = append(notes, fmt.Sprintf("ℓ=%d: mean ratio %.2f", ell, mean))
		means = append(means, mean)
		printed = append(printed, fmt.Sprintf("%.2f", mean))
	}
	return append(notes, fmt.Sprintf(
		"the mean ratio %s ℓ (%s); Theorem 3.14 bounds it by 2^{O(ℓ)} from above and predicts no direction",
		ratioTrend(means), strings.Join(printed, " → ")))
}

// ratioTrend names the direction of means taken in order: "grows with" or
// "falls with" when every step moves the same way, "is not monotone in"
// when steps move both ways, and "does not change with" otherwise.
func ratioTrend(means []float64) string {
	up, down := false, false
	for i := 1; i < len(means); i++ {
		up = up || means[i] > means[i-1]
		down = down || means[i] < means[i-1]
	}
	switch {
	case up && down:
		return "is not monotone in"
	case up:
		return "grows with"
	case down:
		return "falls with"
	}
	return "does not change with"
}
