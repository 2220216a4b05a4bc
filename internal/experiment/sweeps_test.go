package experiment

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func TestSweepsRegistry(t *testing.T) {
	sweeps := Sweeps()
	if len(sweeps) != 5 {
		t.Fatalf("got %d sweeps, want 5", len(sweeps))
	}
	want := []string{"e1", "e5", "s1", "s2", "s3"}
	for i, sp := range sweeps {
		if sp.Name != want[i] {
			t.Errorf("sweep %d = %q, want %q", i, sp.Name, want[i])
		}
		if sp.Title == "" || sp.Grid == nil || sp.Point == nil || sp.Tables == nil {
			t.Errorf("sweep %q has missing pieces", sp.Name)
		}
		g := sp.Grid(Config{Quick: true})
		if err := g.Validate(); err != nil {
			t.Errorf("sweep %q quick grid invalid: %v", sp.Name, err)
		}
		g = sp.Grid(Config{})
		if err := g.Validate(); err != nil {
			t.Errorf("sweep %q full grid invalid: %v", sp.Name, err)
		}
	}
}

func TestLookupSweep(t *testing.T) {
	sp, err := LookupSweep("E1")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "e1" {
		t.Errorf("LookupSweep(E1) = %q", sp.Name)
	}
	if _, err := LookupSweep("e99"); err == nil || !strings.Contains(err.Error(), "e1, e5, s1, s2, s3") {
		t.Errorf("unknown sweep error should list valid ids, got %v", err)
	}
}

// legacyE1 is the pre-sweep E1 harness, kept verbatim as the equivalence
// oracle: the sweep-layer rewire must reproduce its numbers exactly.
func legacyE1(cfg Config) ([]*Table, error) {
	ds := []int64{8, 16, 32, 64, 128}
	ns := []int{1, 4, 16, 64}
	trials := 40
	if cfg.Quick {
		ds = []int64{8, 16, 32}
		ns = []int{1, 4, 16}
		trials = 12
	}
	table := &Table{
		Title:   "E1: Non-Uniform-Search, uniform random target in the D-ball",
		Columns: []string{"D", "n", "trials", "mean_moves", "bound(D²/n+D)", "ratio"},
	}
	var fitD, fitMoves []float64
	for _, d := range ds {
		for _, n := range ns {
			factory, err := search.NonUniformFactory(d, 1)
			if err != nil {
				return nil, err
			}
			st, err := sim.RunPlacedTrials(sim.Config{
				NumAgents:  n,
				MoveBudget: uint64(d*d) * 512,
				Workers:    cfg.Workers,
			}, sim.PlaceUniformBall, d, factory, trials, cfg.Seed+uint64(d)*1000+uint64(n))
			if err != nil {
				return nil, fmt.Errorf("E1 D=%d n=%d: %w", d, n, err)
			}
			if !st.FoundAll {
				return nil, fmt.Errorf("E1 D=%d n=%d: found fraction %v < 1", d, n, st.FoundFrac)
			}
			mean := meanOf(st.Moves)
			bound := float64(d*d)/float64(n) + float64(d)
			table.AddRow(d, n, trials, mean, bound, mean/bound)
			if n == ns[0] {
				fitD = append(fitD, float64(d))
				fitMoves = append(fitMoves, mean)
			}
		}
	}
	if _, p, r2, err := stats.FitPowerLaw(fitD, fitMoves); err == nil {
		table.Notes = append(table.Notes, fmt.Sprintf(
			"single-agent scaling: moves ∝ D^%.2f (R²=%.3f); theorem predicts exponent 2", p, r2))
	}
	table.Notes = append(table.Notes,
		"ratio column should stay bounded by a constant across all (D, n): that is the O(D²/n + D) claim")
	return []*Table{table}, nil
}

// legacyE5 is the pre-sweep E5 harness (equivalence oracle).
func legacyE5(cfg Config) ([]*Table, error) {
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
	table := &Table{
		Title:   "E5: Uniform-Search, uniform random target in the D-ball",
		Columns: []string{"D", "n", "ℓ", "trials", "found_frac", "mean_moves", "bound(D²/n+D)", "ratio"},
	}
	ratioSum := make(map[uint]float64)
	ratioCount := make(map[uint]int)
	for _, d := range ds {
		for _, n := range ns {
			for _, ell := range ells {
				factory, err := search.UniformFactory(ell, n)
				if err != nil {
					return nil, err
				}
				st, err := sim.RunPlacedTrials(sim.Config{
					NumAgents:  n,
					MoveBudget: uint64(d*d) * 4096,
					Workers:    cfg.Workers,
				}, sim.PlaceUniformBall, d, factory, trials, cfg.Seed+uint64(d)*100+uint64(n)*10+uint64(ell))
				if err != nil {
					return nil, fmt.Errorf("E5 D=%d n=%d ℓ=%d: %w", d, n, ell, err)
				}
				if st.FoundFrac < 0.9 {
					return nil, fmt.Errorf("E5 D=%d n=%d ℓ=%d: found fraction %v < 0.9", d, n, ell, st.FoundFrac)
				}
				mean := meanOf(st.Moves)
				bound := float64(d*d)/float64(n) + float64(d)
				ratio := mean / bound
				table.AddRow(d, n, ell, trials, st.FoundFrac, mean, bound, ratio)
				ratioSum[ell] += ratio
				ratioCount[ell]++
			}
		}
	}
	table.Notes = e5Notes(ells, ratioSum, ratioCount)
	return []*Table{table}, nil
}

// legacyS1 is the pre-sweep S1 harness (equivalence oracle).
func legacyS1(cfg Config) ([]*Table, error) {
	d := int64(64)
	agents := 4
	checkpoints := []uint64{64, 256, 1024, 4096, 16384}
	if cfg.Quick {
		d = 32
		checkpoints = []uint64{64, 256, 1024}
	}
	machines, order, err := e6Machines()
	if err != nil {
		return nil, err
	}
	table := &Table{
		Title:   fmt.Sprintf("S1: cells of the %d-ball covered by round t (n = %d)", d, agents),
		Columns: []string{"machine", "round_t", "cells", "cells/t", "ball_fraction"},
	}
	ball := float64(2*d+1) * float64(2*d+1)
	for _, name := range order {
		counts, err := sim.CoverageCurveWith(sim.RoundsConfig{
			Machine:     machines[name],
			NumAgents:   agents,
			TrackRadius: d,
			Workers:     cfg.Workers,
		}, checkpoints, cfg.Seed+31)
		if err != nil {
			return nil, fmt.Errorf("S1 %s: %w", name, err)
		}
		for i, t := range checkpoints {
			table.AddRow(name, t, counts[i],
				float64(counts[i])/float64(t), float64(counts[i])/ball)
		}
	}
	table.Notes = append(table.Notes,
		"drift machines: cells/t starts near 1 then collapses once the ray exits the ball",
		"the random walk keeps growing but sublinearly — neither path reaches ball_fraction ≈ 1")
	return []*Table{table}, nil
}

// TestSweepMatchesLegacyHarness verifies the rewire's acceptance
// criterion: E1, E5 and S1 produce exactly the same rendered tables
// through the sweep layer as the hand-rolled loops they replaced.
func TestSweepMatchesLegacyHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick experiments twice; skipped in -short")
	}
	cfg := Config{Seed: 7, Quick: true}
	cases := []struct {
		id     string
		legacy func(Config) ([]*Table, error)
		now    func(Config) ([]*Table, error)
	}{
		{"E1", legacyE1, runE1},
		{"E5", legacyE5, runE5},
		{"S1", legacyS1, runS1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			want, err := tc.legacy(cfg)
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			got, err := tc.now(cfg)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d tables, want %d", len(got), len(want))
			}
			for i := range want {
				if g, w := got[i].Render(), want[i].Render(); g != w {
					t.Errorf("table %d differs.\n--- sweep ---\n%s\n--- legacy ---\n%s", i, g, w)
				}
			}
		})
	}
}

// TestRunSweepResume runs E1 (quick) against a cache twice: the second run
// is all hits and renders the identical table.
func TestRunSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment twice; skipped in -short")
	}
	cfg := Config{Seed: 7, Quick: true, CacheDir: t.TempDir(), Resume: true}
	var events atomic.Int64 // progress callbacks arrive from shard goroutines
	tables1, rep1, err := RunSweep(e1Sweep(), cfg, func(sweep.Progress) { events.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Computed != rep1.Grid.Size() || rep1.CacheHits != 0 {
		t.Errorf("first run computed=%d hits=%d, want %d/0", rep1.Computed, rep1.CacheHits, rep1.Grid.Size())
	}
	if int(events.Load()) != rep1.Grid.Size() {
		t.Errorf("got %d progress events, want %d", events.Load(), rep1.Grid.Size())
	}
	tables2, rep2, err := RunSweep(e1Sweep(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Computed != 0 || rep2.CacheHits != rep2.Grid.Size() {
		t.Errorf("resumed run computed=%d hits=%d, want 0/%d", rep2.Computed, rep2.CacheHits, rep2.Grid.Size())
	}
	if tables1[0].Render() != tables2[0].Render() {
		t.Error("resumed run renders a different table")
	}
	// A different seed must not hit the first run's entries.
	cfg.Seed = 8
	_, rep3, err := RunSweep(e1Sweep(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CacheHits != 0 {
		t.Errorf("different seed hit the cache %d times", rep3.CacheHits)
	}
}
