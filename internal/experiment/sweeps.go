package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sweep"
)

// SweepSpec couples a declarative experiment grid with its kernel and its
// table renderer. E1, E5 and S1 are expressed this way and run on the
// internal/sweep orchestration layer: points are sharded across workers
// and, when Config.CacheDir is set, memoized in a content-addressed cache
// so interrupted or repeated sweeps resume incrementally.
type SweepSpec struct {
	// Name is the short lowercase id ("e1", "e5", "s1").
	Name string
	// Title describes the sweep.
	Title string
	// Grid declares the parameter space (Quick-aware).
	Grid func(cfg Config) sweep.Grid
	// Point computes one grid point. It derives its per-point seed from
	// Ctx.Seed and the point's parameters — never from expansion order —
	// so results are identical across shard counts and resumes.
	Point sweep.PointFunc
	// Tables renders the completed report into experiment tables.
	Tables func(rep *sweep.Report) ([]*Table, error)
}

// Sweeps returns the registered sweep specs in id order.
func Sweeps() []SweepSpec {
	return []SweepSpec{e1Sweep(), e5Sweep(), s1Sweep(), s2Sweep(), s3Sweep()}
}

// LookupSweep returns the sweep spec with the given id (case-insensitive),
// or an error listing the valid ids.
func LookupSweep(name string) (SweepSpec, error) {
	var ids []string
	for _, sp := range Sweeps() {
		if strings.EqualFold(sp.Name, name) {
			return sp, nil
		}
		ids = append(ids, sp.Name)
	}
	return SweepSpec{}, fmt.Errorf("experiment: unknown sweep %q (valid: %s)", name, strings.Join(ids, ", "))
}

// RunSweep executes a sweep spec through the orchestration layer with
// options derived from cfg (seed, worker bound, cache directory, resume)
// and returns the rendered tables together with the raw report. progress
// may be nil; it receives one event per finished point from worker
// goroutines.
func RunSweep(sp SweepSpec, cfg Config, progress func(sweep.Progress)) ([]*Table, *sweep.Report, error) {
	return RunSweepContext(context.Background(), sp, cfg, progress)
}

// RunSweepContext is RunSweep with cooperative cancellation: the sweep
// stops claiming new grid points once ctx is done (see
// sweep.RunPointsContext for the exact granularity and cache guarantees).
// `antsim -sweep` uses it to stop at a point boundary on SIGINT or SIGTERM.
func RunSweepContext(ctx context.Context, sp SweepSpec, cfg Config, progress func(sweep.Progress)) ([]*Table, *sweep.Report, error) {
	opts := sweep.Options{
		Seed: cfg.Seed,
		// Sweep-level sharding is the parallelism: each point runs its
		// engines single-threaded (engine results are worker-count
		// independent, so this is a pure scheduling choice).
		Shards:   cfg.Workers,
		Workers:  1,
		Progress: progress,
	}
	if cfg.CacheDir != "" {
		cache, err := sweep.NewCache(cfg.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		opts.Cache = cache
		opts.Resume = cfg.Resume
	}
	rep, err := sweep.RunContext(ctx, sp.Grid(cfg), sp.Point, opts)
	if err != nil {
		return nil, nil, err
	}
	tables, err := sp.Tables(rep)
	if err != nil {
		return nil, nil, err
	}
	return tables, rep, nil
}

// axisValues returns the named axis's values from a report's grid, or an
// error if the grid lost the axis (a programming error in the spec).
func axisValues(rep *sweep.Report, name string) ([]string, error) {
	for _, a := range rep.Grid.Axes {
		if a.Name == name {
			return a.Values, nil
		}
	}
	return nil, fmt.Errorf("experiment: report of grid %q has no axis %q", rep.Grid.Name, name)
}
