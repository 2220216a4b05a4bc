package service

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// ShardArtifactSchemaVersion versions the shard-job artifact layout.
const ShardArtifactSchemaVersion = 1

// ShardPoint is one grid point of a shard artifact: the point's expansion
// index and parameters, its result, and whether the serving worker had it
// cached (metadata only — the result bytes are identical either way).
type ShardPoint struct {
	// Index is the point's position in the grid's expansion order.
	Index int `json:"index"`
	// Params bind every axis name to one value, in axis order.
	Params []sweep.Param `json:"params"`
	// Cached reports whether the worker served the point from its local
	// content-addressed cache instead of recomputing it.
	Cached bool `json:"cached"`
	// Result is the point's kernel result.
	Result *sweep.Result `json:"result"`
}

// ShardArtifact is the JSON result of a shard job: the grid identity the
// points belong to plus one entry per requested index, in request order.
// The coordinator (internal/cluster) merges shard artifacts from many
// workers into a single report byte-identical to a local run's.
type ShardArtifact struct {
	// SchemaVersion is ShardArtifactSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Sweep is the registered sweep id the shard belongs to, or "synth"
	// for an inline synthesis grid.
	Sweep string `json:"sweep"`
	// Grid identifies the expanded grid the indexes refer to.
	Grid string `json:"grid"`
	// GridVersion is the grid's kernel-semantics version.
	GridVersion int `json:"grid_version"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed"`
	// Trials is the per-point trial count.
	Trials int `json:"trials"`
	// Points hold the computed grid points in request order.
	Points []ShardPoint `json:"points"`
}

// ParseShardArtifact decodes and sanity-checks a shard artifact fetched
// from a worker's /result endpoint.
func ParseShardArtifact(data []byte) (*ShardArtifact, error) {
	var art ShardArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("service: parse shard artifact: %w", err)
	}
	if art.SchemaVersion != ShardArtifactSchemaVersion {
		return nil, fmt.Errorf("service: shard artifact schema %d, want %d", art.SchemaVersion, ShardArtifactSchemaVersion)
	}
	for _, sp := range art.Points {
		if sp.Result == nil {
			return nil, fmt.Errorf("service: shard artifact point %d has no result", sp.Index)
		}
	}
	return &art, nil
}

// executeShard runs points of a shard job's grid (JobSpec.Grid), all of
// them when Points is empty, through sweep.RunPoints — same config
// derivation and cache behavior as a full sweep job, but returning
// per-point results instead of an aggregate summary. With a CacheDir,
// points the worker already holds are served as cache hits (no kernel
// call), which is what makes cache federation ship metadata instead of
// recomputation.
func (s *Service) executeShard(ctx context.Context, rec *record, spec JobSpec) ([]byte, []byte, error) {
	g, kernel, label, err := spec.Grid()
	if err != nil {
		return nil, nil, err
	}
	idxs := spec.Points
	if len(idxs) == 0 {
		idxs = make([]int, g.Size())
		for i := range idxs {
			idxs[i] = i
		}
	}
	rec.setTotal(len(idxs))
	opts := sweep.Options{
		Seed: spec.Seed,
		// Mirror the full-sweep execution exactly: point-level sharding is
		// the parallelism, each point runs its engines single-threaded.
		Shards:  spec.Workers,
		Workers: 1,
		Progress: func(p sweep.Progress) {
			s.pointsDone.Add(1)
			if p.Cached {
				s.pointsCached.Add(1)
			}
			rec.progress(p.Done, p.Total, p.Point.String(), p.Cached)
		},
	}
	if s.cfg.CacheDir != "" {
		cache, err := sweep.NewCache(s.cfg.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		opts.Cache = cache
		opts.Resume = true
	}
	prs, err := sweep.RunPointsContext(ctx, g, idxs, kernel, opts)
	if err != nil {
		return nil, nil, err
	}
	art := &ShardArtifact{
		SchemaVersion: ShardArtifactSchemaVersion,
		Sweep:         label,
		Grid:          g.Name,
		GridVersion:   g.Version,
		Seed:          spec.Seed,
		Trials:        g.Trials,
		Points:        make([]ShardPoint, len(prs)),
	}
	for i, pr := range prs {
		art.Points[i] = ShardPoint{
			Index:  pr.Point.Index,
			Params: pr.Point.Params,
			Cached: pr.Cached,
			Result: pr.Result,
		}
	}
	jsonB, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	jsonB = append(jsonB, '\n')
	// The CSV rendering reuses the summary table restricted to the shard's
	// rows — handy for eyeballing a shard, not used by the coordinator.
	rep := &sweep.Report{Grid: g, Seed: spec.Seed, Points: prs}
	return jsonB, []byte(rep.Summary().CSV()), nil
}
