package cluster

import (
	"context"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sweep"
)

// NewDistributor adapts the coordinator to the service layer's
// Distributor hook: an antsimd daemon with this installed executes its
// sweep jobs across the fleet returned by workers (typically the daemon's
// live join registry) instead of locally. An empty fleet declines, so the
// daemon falls back to local execution; a fleet failure mid-run fails the
// job (the determinism contract makes a retry safe and, with a cache
// directory, warm). cacheDir roots the coordinator-side federated cache —
// normally the daemon's own CacheDir, so daemon-local and distributed
// runs share one cache. health, when non-nil, receives per-worker
// heartbeat round-trip samples (typically the daemon's own Monitor, so
// /v1/monitor covers the fleet); nil disables the sampling.
func NewDistributor(workers func() []string, cacheDir string, health *monitor.Monitor) service.Distributor {
	return func(ctx context.Context, spec service.JobSpec, progress func(sweep.Progress)) (*sweep.Report, bool, error) {
		fleet := workers()
		if len(fleet) == 0 {
			return nil, false, nil
		}
		c, err := New(Config{Workers: fleet, CacheDir: cacheDir, Resume: cacheDir != "", Health: health})
		if err != nil {
			return nil, true, err
		}
		var p func(Progress)
		if progress != nil {
			p = func(cp Progress) {
				progress(sweep.Progress{Done: cp.Done, Total: cp.Total, Point: cp.Point, Cached: cp.Cached})
			}
		}
		spec.Kind = service.KindShard // the sweep job's grid, shipped as shards
		d, err := c.Dispatch(ctx, spec, p)
		if err != nil {
			return nil, true, err
		}
		return d.Report, true, nil
	}
}
