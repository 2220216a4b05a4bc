package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
)

// baselineSchemaVersion versions the snapshot layout (DESIGN.md §9
// describes the series). Version 2 added the parent field, turning the
// committed BENCH_*.json files into a linked series rather than a single
// baseline.
const baselineSchemaVersion = 2

// Baseline is a machine-readable snapshot of the simulation kernels'
// throughput, written by `antbench -baseline <path>` so successive PRs can
// track the perf trajectory (see the BENCH_*.json series at the repo root).
type Baseline struct {
	SchemaVersion int `json:"schema_version"`
	// Parent names the snapshot this one was measured against (empty for
	// the root of the series).
	Parent     string             `json:"parent,omitempty"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Timestamp  string             `json:"timestamp"`
	Kernels    map[string]float64 `json:"kernels_ns_per_op"`
}

// gatedKernels are the kernels the -compare gate refuses to let regress:
// the innermost transition and the compiled walker loop, whose cost every
// engine pays per agent per round.
var gatedKernels = []string{"compiled_next", "walker_step"}

// measure times fn until it has consumed at least minDur (and at least two
// batches), returning ns per op. fn runs ops operations per call.
func measure(ops int, minDur time.Duration, fn func()) float64 {
	fn() // warm up (and compile machines, fault pages)
	var total time.Duration
	var n int
	for total < minDur || n < 2*ops {
		start := time.Now()
		fn()
		total += time.Since(start)
		n += ops
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// measureBaseline runs every kernel and assembles the snapshot.
func measureBaseline(parent string) (Baseline, error) {
	const minDur = 200 * time.Millisecond
	kernels := map[string]float64{}

	// Raw compiled transition (the innermost operation of every engine).
	rw := automata.RandomWalk()
	c := rw.Compiled()
	src := rng.New(1)
	kernels["compiled_next"] = measure(1<<16, minDur, func() {
		s := c.Start()
		for i := 0; i < 1<<16; i++ {
			s = c.Next(s, src.Uint64())
		}
		baselineSink = s
	})

	// Walker step, compiled vs dense reference.
	w := automata.NewWalker(rw, rng.New(1))
	kernels["walker_step"] = measure(1<<16, minDur, func() { w.StepN(1 << 16) })
	dw := automata.NewDenseWalker(rw, rng.New(1))
	kernels["dense_walker_step"] = measure(1<<14, minDur, func() {
		for i := 0; i < 1<<14; i++ {
			dw.Step()
		}
	})

	// The S1 synchronous-rounds kernel (4 agents, 1024 rounds, radius 32).
	var seed uint64
	kernels["s1_coverage_curve"] = measure(1, minDur, func() {
		seed++
		if _, err := sim.CoverageCurve(rw, 4, 32, []uint64{256, 1024}, seed); err != nil {
			panic(err)
		}
	})

	// The E6 asynchronous coverage kernel (2-bit drift machine, D = 64).
	drift, err := automata.DriftLineMachine(2)
	if err != nil {
		return Baseline{}, err
	}
	kernels["e6_coverage"] = measure(1, minDur, func() {
		seed++
		if _, err := lowerbound.MeasureCoverage(drift, lowerbound.CoverageConfig{
			D:         64,
			NumAgents: 2,
		}, seed); err != nil {
			panic(err)
		}
	})

	// The sparse-arena kernel: 8 agents, 512 rounds against an indexed
	// obstacle world with the sparse visit backing — the unbounded-arena
	// configuration the tile index exists for.
	wall := sim.NewObstacles(
		grid.NewRect(grid.Point{X: 24, Y: 1}, grid.Point{X: 24, Y: 48}),
		grid.NewRect(grid.Point{X: 24, Y: -48}, grid.Point{X: 24, Y: -1}),
		grid.NewRect(grid.Point{X: -16, Y: 8}, grid.Point{X: -8, Y: 16}),
	)
	kernels["sparse_world_step"] = measure(1, minDur, func() {
		seed++
		if _, err := sim.RunRounds(sim.RoundsConfig{
			Machine:      rw,
			NumAgents:    8,
			Rounds:       512,
			World:        wall,
			TrackRadius:  1 << 30,
			SparseVisits: true,
			Workers:      1,
		}, nil, seed); err != nil {
			panic(err)
		}
	})

	// The asynchronous engine: Algorithm 1 (ℓ = 1) with 4 agents against
	// the corner target at D = 32 on one worker, under E1's budget — the
	// directed walks that dominate the search workload.
	nonUniform, err := search.NonUniformFactory(32, 1)
	if err != nil {
		return Baseline{}, err
	}
	kernels["e1_nonuniform"] = measure(1, minDur, func() {
		seed++
		if _, err := sim.Run(sim.Config{
			NumAgents:  4,
			Target:     grid.Point{X: 32, Y: 32},
			HasTarget:  true,
			MoveBudget: 32 * 32 * 512,
			Workers:    1,
		}, nonUniform, rng.New(seed)); err != nil {
			panic(err)
		}
	})

	// The rounds engine's hit kernel: Algorithm 1's automaton (D = 32),
	// 256 agents on one worker, StopOnFound against fixed targets — the
	// swarm benchmark's hit class. One op is one agent-round; the rounds
	// stepped past a find are cost, not ops.
	hitMachine, err := search.Algorithm1Machine(32)
	if err != nil {
		return Baseline{}, err
	}
	hitTargets := []grid.Point{{X: 32, Y: 0}, {X: -20, Y: 17}, {X: 5, Y: -29}, {X: -31, Y: -31}}
	hitRuns := func() (agentRounds int) {
		for i, target := range hitTargets {
			res, err := sim.RunRounds(sim.RoundsConfig{
				Machine:     hitMachine,
				NumAgents:   256,
				Rounds:      64 * 32 * 32,
				Target:      target,
				HasTarget:   true,
				StopOnFound: true,
				Workers:     1,
			}, nil, uint64(i+1))
			if err != nil {
				panic(err)
			}
			agentRounds += 256 * int(res.RoundsRun)
		}
		return agentRounds
	}
	kernels["rounds_hit"] = measure(hitRuns(), minDur, func() { hitRuns() })

	return Baseline{
		SchemaVersion: baselineSchemaVersion,
		Parent:        parent,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Kernels:       kernels,
	}, nil
}

// writeBaseline serializes a measured snapshot to path.
func writeBaseline(b Baseline, path string, out io.Writer) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write baseline: %w", err)
	}
	fmt.Fprintf(out, "wrote %s\n%s", path, data)
	return nil
}

// compareBaseline prints candidate vs the snapshot at basePath and enforces
// the regression gate: each gated kernel may be at most (1+tolerance)× its
// reference value. Improvements of any size and kernels absent from the
// reference (newly added) always pass.
func compareBaseline(candidate Baseline, basePath string, tolerance float64, out io.Writer) error {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("read reference snapshot: %w", err)
	}
	var ref Baseline
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("parse reference snapshot %s: %w", basePath, err)
	}
	names := make([]string, 0, len(candidate.Kernels))
	for k := range candidate.Kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	gated := map[string]bool{}
	for _, k := range gatedKernels {
		gated[k] = true
	}
	var failures []string
	fmt.Fprintf(out, "compare vs %s (tolerance %+.0f%% on %v):\n",
		basePath, tolerance*100, gatedKernels)
	for _, k := range names {
		cur := candidate.Kernels[k]
		base, ok := ref.Kernels[k]
		switch {
		case !ok:
			fmt.Fprintf(out, "  %-20s %12.1f ns/op   (new)\n", k, cur)
		default:
			delta := (cur - base) / base
			status := "ok"
			if gated[k] && delta > tolerance {
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f ns/op)", k, delta*100, base, cur))
			}
			fmt.Fprintf(out, "  %-20s %12.1f ns/op  %+7.1f%%  %s\n", k, cur, delta*100, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate: %d kernel(s) beyond ±%.0f%%: %v",
			len(failures), tolerance*100, failures)
	}
	return nil
}

// baselineSink defeats dead-code elimination in the measured loops.
var baselineSink int
