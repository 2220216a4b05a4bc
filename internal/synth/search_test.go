package synth

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// testSearchConfig is a deliberately tiny but fully explicit search:
// small enough for unit tests, rich enough (two budgets, two
// generations) to exercise the annealing loop, dedup, and tie-breaks.
func testSearchConfig(seed uint64) Config {
	return Config{
		MinStates:   2,
		MaxStates:   3,
		Generations: 2,
		Population:  3,
		Seed:        seed,
		Eval:        EvalConfig{Ds: []int64{4}, Agents: 2, Trials: 3, BudgetFactor: 2},
	}
}

func searchJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSearchDeterministicAcrossShards is the worker-count half of the
// determinism contract: the same seed yields byte-identical results
// whether candidate points are evaluated serially or across many
// goroutines.
func TestSearchDeterministicAcrossShards(t *testing.T) {
	cfg := testSearchConfig(11)
	var outs [][]byte
	for _, shards := range []int{1, 4} {
		ev := &LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed, Shards: shards}
		res, err := Search(context.Background(), cfg, ev)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		outs = append(outs, searchJSON(t, res))
		for _, br := range res.Budgets {
			if !(br.Score > 0) {
				t.Fatalf("budget %d score %v not positive", br.Budget, br.Score)
			}
			if br.States > br.Budget {
				t.Fatalf("budget %d winner has %d states", br.Budget, br.States)
			}
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("search result depends on shard count:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// TestSearchArtifactsByteStable runs the same search twice from scratch
// and requires every artifact file — result JSON, curve CSV, per-budget
// spec files — to be byte-identical across the runs.
func TestSearchArtifactsByteStable(t *testing.T) {
	cfg := testSearchConfig(23)
	write := func(dir string) map[string][]byte {
		ev := &LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed}
		res, err := Search(context.Background(), cfg, ev)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := res.WriteArtifacts(filepath.Join(dir, "synth"))
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = data
		}
		return files
	}
	a, b := write(t.TempDir()), write(t.TempDir())
	if len(a) != len(b) || len(a) < 4 { // json + csv + one spec per budget
		t.Fatalf("artifact sets differ in shape: %d vs %d files", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("artifact %s differs between identical runs:\n%s\nvs\n%s", name, data, b[name])
		}
	}
}

// TestSearchResumeExecutesZeroKernels is the synthesis resumability
// contract, kernel-counted like the sweep layer's
// TestResumeRecomputesOnlyMissingPoints: a search killed mid-run and
// resumed against the same cache recomputes exactly the evaluations the
// kill lost, reaches the identical artifact, and a warm re-run executes
// zero kernels.
func TestSearchResumeExecutesZeroKernels(t *testing.T) {
	cfg := testSearchConfig(11)

	// Oracle: one uninterrupted run, counting every kernel execution.
	full := &LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed, Shards: 1}
	res, err := Search(context.Background(), cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	want := searchJSON(t, res)
	fullCalls := full.KernelCalls()
	const killAt = 4
	if fullCalls <= killAt {
		t.Fatalf("full search made only %d kernel calls; the interruption point %d would not interrupt", fullCalls, killAt)
	}

	// Interrupted run: cancel at the 4th point boundary. Shards=1 makes
	// the execution order deterministic, and the sweep layer commits each
	// finished point to the cache before reporting it, so exactly the
	// first 4 evaluations land in the cache.
	dir := t.TempDir()
	cacheFor := func() *sweep.Cache {
		c, err := sweep.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	interrupted := &LocalEvaluator{
		Eval: cfg.Eval, Seed: cfg.Seed, Shards: 1, Cache: cacheFor(), Resume: true,
		Progress: func(p sweep.Progress) {
			if seen.Add(1) == killAt {
				cancel()
			}
		},
	}
	if _, err := Search(ctx, cfg, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted search returned %v, want context.Canceled", err)
	}
	if got := interrupted.KernelCalls(); got != killAt {
		t.Fatalf("interrupted search executed %d kernels, want %d", got, killAt)
	}

	// Resumed run: recomputes exactly the lost evaluations and reaches
	// the oracle's bytes.
	resumed := &LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed, Shards: 1, Cache: cacheFor(), Resume: true}
	res2, err := Search(context.Background(), cfg, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := searchJSON(t, res2); !bytes.Equal(got, want) {
		t.Errorf("resumed search differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if got := interrupted.KernelCalls() + resumed.KernelCalls(); got != fullCalls {
		t.Errorf("interrupted+resumed executed %d kernels, uninterrupted run executed %d", got, fullCalls)
	}

	// Warm re-run: the cache holds every evaluation; zero kernels execute.
	warm := &LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed, Shards: 1, Cache: cacheFor(), Resume: true}
	res3, err := Search(context.Background(), cfg, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.KernelCalls(); got != 0 {
		t.Errorf("warm re-run executed %d kernels, want 0", got)
	}
	if got := searchJSON(t, res3); !bytes.Equal(got, want) {
		t.Errorf("warm re-run differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestSearchValidation pins the config error cases.
func TestSearchValidation(t *testing.T) {
	ev := &LocalEvaluator{Eval: EvalConfig{}.WithDefaults(true), Seed: 1}
	cases := []Config{
		{MinStates: 0, MaxStates: 3, Generations: 1, Population: 1, Eval: ev.Eval},
		{MinStates: 4, MaxStates: 3, Generations: 1, Population: 1, Eval: ev.Eval},
		{MinStates: 2, MaxStates: 3, Generations: 0, Population: 1, Eval: ev.Eval},
		{MinStates: 2, MaxStates: 3, Generations: 1, Population: 0, Eval: ev.Eval},
		{MinStates: 2, MaxStates: 3, Generations: 1, Population: 1},
	}
	for i, cfg := range cases {
		if _, err := Search(context.Background(), cfg, ev); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Search(context.Background(), testSearchConfig(1), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	huge := ev.Eval
	huge.Agents = sim.MaxAgents + 1
	if err := huge.Validate(); !errors.Is(err, sim.ErrTooManyAgents) {
		t.Errorf("agents above sim.MaxAgents: %v, want ErrTooManyAgents", err)
	}
}
