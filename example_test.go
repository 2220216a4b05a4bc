package ants_test

import (
	"context"
	"fmt"
	"os"

	ants "repro"
)

// The audits are deterministic, so they make good runnable documentation.

func ExampleNonUniformAudit() {
	audit, _ := ants.NonUniformAudit(1<<16, 1)
	fmt.Println(audit)
	// Output: non-uniform-search: b=7 bits, ℓ=1, χ=7.00
}

func ExampleNonUniformAudit_trade() {
	// Trading memory bits for probability fineness leaves χ unchanged
	// (Theorem 3.7): the selection complexity is the invariant.
	for _, ell := range []uint{1, 2, 4} {
		audit, _ := ants.NonUniformAudit(1<<16, ell)
		fmt.Printf("ℓ=%d b=%d χ=%.0f\n", ell, audit.B, audit.Chi())
	}
	// Output:
	// ℓ=1 b=7 χ=7
	// ℓ=2 b=6 χ=7
	// ℓ=4 b=5 χ=7
}

func ExampleAnalyzeMachine() {
	a, _ := ants.AnalyzeMachine(ants.RandomWalkMachine())
	fmt.Printf("recurrent classes: %d, period: %d, drift: (%.0f, %.0f)\n",
		len(a.Recurrent), a.Period[0], a.Drift[0][0], a.Drift[0][1])
	// Output: recurrent classes: 1, period: 1, drift: (0, 0)
}

func ExampleRun() {
	factory, _ := ants.NonUniformSearch(16, 1)
	res, _ := ants.Run(ants.Config{
		NumAgents:  4,
		Target:     ants.Point{X: 8, Y: 8},
		HasTarget:  true,
		MoveBudget: 1 << 20,
	}, factory, 42)
	fmt.Println("found:", res.Found)
	// Output: found: true
}

// ExampleBuildScenario runs the same algorithm on a torus world from the
// scenario registry: the spec string selects the world, the target set and
// the fault model, and Apply overlays them on an engine config.
func ExampleBuildScenario() {
	scn, _ := ants.BuildScenario("torus:l=40", 16)
	factory, _ := ants.NonUniformSearch(16, 1)
	res, _ := ants.Run(scn.Apply(ants.Config{
		NumAgents:  4,
		MoveBudget: 1 << 20,
	}), factory, 42)
	fmt.Println(scn.Spec, "on", scn.WorldName(), "found:", res.Found)
	// Output: torus:l=40 on torus-40 found: true
}

// ExampleRunSweep declares a small experiment grid over (D, n) and runs it
// through the sweep layer: the kernel is called once per point, points are
// sharded across workers, and the summary aggregates each point's samples.
func ExampleRunSweep() {
	grid := ants.SweepGrid{
		Name:    "bound-demo",
		Version: 1,
		Axes: []ants.SweepAxis{
			ants.SweepInt64Axis("D", 8, 16),
			ants.SweepIntAxis("n", 1, 4),
		},
		Trials: 3,
	}
	// The kernel: a deterministic function of the point and the seed.
	// Real sweeps call the engines here (see ExampleRunSweep_cached).
	kernel := func(p ants.SweepPoint, ctx ants.SweepCtx) (*ants.SweepResult, error) {
		b := p.Bind()
		d, n := b.Int64("D"), b.Int("n")
		if err := b.Err(); err != nil {
			return nil, err
		}
		bound := float64(d*d)/float64(n) + float64(d)
		samples := make([]float64, ctx.Trials)
		for i := range samples {
			samples[i] = bound + float64(i)
		}
		return &ants.SweepResult{Samples: samples}, nil
	}
	report, _ := ants.RunSweep(grid, kernel, ants.SweepOptions{Seed: 42})
	for _, pt := range report.Points {
		fmt.Printf("%s: %d samples\n", pt.Point, len(pt.Result.Samples))
	}
	// Output:
	// D=8 n=1: 3 samples
	// D=8 n=4: 3 samples
	// D=16 n=1: 3 samples
	// D=16 n=4: 3 samples
}

// ExampleRunSweep_cached runs a real simulation grid twice against a
// content-addressed cache: the second run recomputes nothing, which is how
// interrupted sweeps resume.
func ExampleRunSweep_cached() {
	grid := ants.SweepGrid{
		Name:    "nonuniform-demo",
		Version: 1,
		Axes:    []ants.SweepAxis{ants.SweepInt64Axis("D", 8), ants.SweepIntAxis("n", 1, 2)},
		Trials:  2,
	}
	kernel := func(p ants.SweepPoint, ctx ants.SweepCtx) (*ants.SweepResult, error) {
		b := p.Bind()
		d, n := b.Int64("D"), b.Int("n")
		if err := b.Err(); err != nil {
			return nil, err
		}
		factory, err := ants.NonUniformSearch(d, 1)
		if err != nil {
			return nil, err
		}
		st, err := ants.RunPlacedTrials(ants.Config{
			NumAgents:  n,
			MoveBudget: uint64(d*d) * 512,
			Workers:    ctx.Workers,
		}, ants.PlaceUniformBall, d, factory, ctx.Trials, ctx.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		return &ants.SweepResult{Samples: st.Moves}, nil
	}
	dir, err := os.MkdirTemp("", "sweep-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	cache, _ := ants.NewSweepCache(dir)
	opts := ants.SweepOptions{Seed: 1, Cache: cache, Resume: true}
	first, _ := ants.RunSweep(grid, kernel, opts)
	second, _ := ants.RunSweep(grid, kernel, opts)
	fmt.Printf("first run:  %d computed, %d cached\n", first.Computed, first.CacheHits)
	fmt.Printf("second run: %d computed, %d cached\n", second.Computed, second.CacheHits)
	fmt.Println("identical tables:", first.Summary().CSV() == second.Summary().CSV())
	// Output:
	// first run:  2 computed, 0 cached
	// second run: 0 computed, 2 cached
	// identical tables: true
}

// ExampleSynthesize runs a tiny design-space search: one annealing
// generation over the two-state machines, every candidate scored
// in-process against the D²/n + D lower bound.
func ExampleSynthesize() {
	cfg := ants.SynthConfig{MinStates: 2, MaxStates: 2, Generations: 1, Population: 2, Seed: 1}.WithDefaults(true)
	res, err := ants.Synthesize(context.Background(), cfg, &ants.SynthLocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, b := range res.Budgets {
		fmt.Printf("budget %d: %d states, χ = %.0f\n", b.Budget, b.States, b.Chi)
	}
	// Output: budget 2: 2 states, χ = 1
}
