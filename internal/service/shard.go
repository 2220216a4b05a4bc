package service

import (
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

// newShardArtifact builds a shard job's artifact from its report,
// recording label as the sweep id.
func newShardArtifact(label string, rep *sweep.Report) *ShardArtifact {
	art := &ShardArtifact{
		SchemaVersion: ShardArtifactSchemaVersion,
		Sweep:         label,
		Grid:          rep.Grid.Name,
		GridVersion:   rep.Grid.Version,
		Seed:          rep.Seed,
		Trials:        rep.Grid.Trials,
		Points:        make([]ShardPoint, len(rep.Points)),
	}
	for i, pr := range rep.Points {
		art.Points[i] = ShardPoint{
			Index:  pr.Point.Index,
			Params: pr.Point.Params,
			Cached: pr.Cached,
			Result: pr.Result,
		}
	}
	return art
}
