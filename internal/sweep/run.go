package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is one progress event: a point just finished (computed or
// served from the cache).
type Progress struct {
	// Done points so far and Total points in the grid.
	Done, Total int
	// Point is the point that just finished.
	Point Point
	// Cached reports whether the point was served from the cache.
	Cached bool
	// ElapsedSec is the point's kernel time (0 for cache hits).
	ElapsedSec float64
}

// Options parameterize one sweep run.
type Options struct {
	// Seed is the sweep's root seed, handed to every kernel call via Ctx
	// and mixed into every cache key.
	Seed uint64
	// Shards bounds how many points run concurrently (0 = GOMAXPROCS,
	// capped at the grid size). Results never depend on it.
	Shards int
	// Workers bounds engine concurrency inside one point (Ctx.Workers).
	Workers int
	// Cache, when non-nil, stores every computed point. With Resume,
	// existing entries are served instead of recomputed; without it, the
	// run recomputes everything and overwrites.
	Cache *Cache
	// Resume serves cache hits instead of recomputing them.
	Resume bool
	// Progress, when non-nil, receives one event per finished point. It is
	// called from worker goroutines and must be safe for concurrent use.
	Progress func(Progress)
}

// PointResult pairs a point with its computed (or cached) result.
type PointResult struct {
	Point Point `json:"point"`
	// Cached reports whether the result came from the cache.
	Cached bool    `json:"cached"`
	Result *Result `json:"result"`
}

// Report is the outcome of one sweep run: the points it ran, plus run
// accounting.
type Report struct {
	Grid Grid   `json:"grid"`
	Seed uint64 `json:"seed"`
	// Points holds one entry per point run, in the order requested (for
	// a full run, every grid point in expansion order) regardless of
	// sharding.
	Points []PointResult `json:"points"`
	// Computed and CacheHits partition the points by provenance.
	Computed  int `json:"computed"`
	CacheHits int `json:"cache_hits"`
	// ElapsedSec is the whole run's wall-clock time.
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Run expands the grid and evaluates fn at every point, sharding points
// across Options.Shards goroutines. Points are claimed off an atomic
// counter (the same idiom as internal/sim's agent queue) and each index
// owns its slot of the result slice, so the steady state takes no locks.
// The first kernel error aborts the run; already-finished points stay in
// the cache, so a re-run with Resume picks up where the failure struck.
func Run(g Grid, fn PointFunc, opts Options) (*Report, error) {
	return RunContext(context.Background(), g, fn, opts)
}

// RunContext is Run with cooperative cancellation: RunPointsContext over
// every index of the grid, in expansion order.
func RunContext(ctx context.Context, g Grid, fn PointFunc, opts Options) (*Report, error) {
	idxs := make([]int, g.Size())
	for i := range idxs {
		idxs[i] = i
	}
	return RunPointsContext(ctx, g, idxs, fn, opts)
}

// RunPointsContext evaluates the grid points with the given expansion
// indexes, in the order requested, and reports them with run accounting.
// A full run (RunContext) lists every index; a shard of a distributed run
// (internal/cluster) lists the indexes one worker computes. Results are
// identical to the corresponding slice of a full run: cache keys depend on
// the point's parameters, never on its index or on which indexes ride
// along. Indexes must be unique and in range.
//
// Cancellation granularity is the point boundary: workers stop claiming
// new points as soon as ctx is done and the call returns ctx's error. A
// kernel already in flight runs to completion, and its result is committed
// to the cache before the workers wind down, so a cancelled run never
// leaves a partial or corrupt entry behind and a later Resume run picks up
// exactly where the cancellation struck.
func RunPointsContext(ctx context.Context, g Grid, idxs []int, fn PointFunc, opts Options) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, errors.New("sweep: nil point function")
	}
	if len(idxs) == 0 {
		return nil, errors.New("sweep: no point indexes to run")
	}
	all := g.Points()
	seen := make([]bool, len(all))
	points := make([]Point, len(idxs))
	for i, idx := range idxs {
		if idx < 0 || idx >= len(all) {
			return nil, fmt.Errorf("sweep: point index %d out of range [0,%d) of grid %q", idx, len(all), g.Name)
		}
		if seen[idx] {
			return nil, fmt.Errorf("sweep: point index %d requested twice", idx)
		}
		seen[idx] = true
		points[i] = all[idx]
	}
	start := time.Now()
	results, err := runPoints(ctx, g, points, fn, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Grid: g, Seed: opts.Seed, Points: results}
	for _, pr := range results {
		if pr.Cached {
			rep.CacheHits++
		}
	}
	rep.Computed = len(results) - rep.CacheHits
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// runPoints is the worker-pool core of RunPointsContext: points are
// claimed off an atomic counter by a pool of goroutines, each slot index
// owns its entry of the result slice, and the first kernel error (or the
// context) stops the claim loop.
func runPoints(ctx context.Context, g Grid, points []Point, fn PointFunc, opts Options) ([]PointResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(points) {
		shards = len(points)
	}
	kctx := Ctx{Seed: opts.Seed, Trials: g.Trials, Workers: opts.Workers}
	out := make([]PointResult, len(points))

	var (
		wg      sync.WaitGroup
		next    atomic.Int64 // next slot index to claim
		done    atomic.Int64 // finished points, for progress events
		stop    atomic.Bool  // set on first kernel error
		errOnce sync.Once
		runErr  error
	)
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				p := points[i]
				res, cached, err := runPoint(g, p, fn, kctx, opts)
				if err != nil {
					errOnce.Do(func() { runErr = fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err) })
					stop.Store(true)
					return
				}
				out[i] = PointResult{Point: p, Cached: cached, Result: res}
				if opts.Progress != nil {
					elapsed := res.ElapsedSec
					if cached {
						// The stored value is the original computation's
						// time; this run spent none.
						elapsed = 0
					}
					opts.Progress(Progress{
						Done:       int(done.Add(1)),
						Total:      len(points),
						Point:      p,
						Cached:     cached,
						ElapsedSec: elapsed,
					})
				}
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: run of grid %q cancelled: %w", g.Name, err)
	}
	return out, nil
}

// runPoint evaluates one point: cache lookup (when resuming), kernel call,
// cache store.
func runPoint(g Grid, p Point, fn PointFunc, ctx Ctx, opts Options) (*Result, bool, error) {
	var key Key
	if opts.Cache != nil {
		key = KeyFor(g, p, opts.Seed)
		if opts.Resume {
			if res, ok := opts.Cache.Get(key); ok {
				return res, true, nil
			}
		}
	}
	start := time.Now()
	res, err := fn(p, ctx)
	if err != nil {
		return nil, false, err
	}
	if res == nil {
		return nil, false, errors.New("kernel returned a nil result")
	}
	res.ElapsedSec = time.Since(start).Seconds()
	if opts.Cache != nil {
		if err := opts.Cache.Put(key, res); err != nil {
			return nil, false, err
		}
	}
	return res, false, nil
}
