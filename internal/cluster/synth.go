package cluster

import (
	"context"
	"sync"

	"repro/internal/service"
	"repro/internal/synth"
)

// SynthEvaluator adapts a Cluster to synth.Evaluator: each candidate
// batch the search proposes is dispatched across the fleet as the inline
// synth grid of a shard spec and folded back into curves with the same
// fold the local evaluator uses — so a fleet-driven search replays the
// exact trajectory of a local one, point for point and byte for byte.
type SynthEvaluator struct {
	// Cluster executes the batches.
	Cluster *Cluster
	// Eval is the fully explicit scoring configuration (apply
	// synth.EvalConfig.WithDefaults first).
	Eval synth.EvalConfig
	// Seed is the evaluation seed; it must equal the search seed.
	Seed uint64
	// Workers bounds each job's internal concurrency on its workers.
	Workers int
	// Progress, when non-nil, receives one event per merged point.
	Progress func(Progress)

	mu    sync.Mutex
	stats Stats
}

var _ synth.Evaluator = (*SynthEvaluator)(nil)

// Evaluate implements synth.Evaluator by fanning the batch across the
// fleet.
func (e *SynthEvaluator) Evaluate(ctx context.Context, specs []string) ([]*synth.Curve, error) {
	d, err := e.Cluster.Dispatch(ctx, service.JobSpec{
		Kind:              service.KindShard,
		SynthSpecs:        specs,
		SynthDs:           e.Eval.Ds,
		SynthAgents:       e.Eval.Agents,
		Trials:            e.Eval.Trials,
		SynthBudgetFactor: e.Eval.BudgetFactor,
		Seed:              e.Seed,
		Workers:           e.Workers,
	}, e.Progress)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.stats.add(d.Stats)
	e.mu.Unlock()
	return synth.CurvesFromResults(specs, e.Eval, d.Report.Points)
}

// Stats returns the distribution accounting accumulated across every
// batch this evaluator has dispatched.
func (e *SynthEvaluator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// add accumulates another dispatch's accounting (Workers keeps the
// fleet size rather than summing; Failed lists every failure seen).
func (s *Stats) add(o Stats) {
	s.Workers = o.Workers
	s.Failed = append(s.Failed, o.Failed...)
	s.Shards += o.Shards
	s.Reassigned += o.Reassigned
	s.Backpressure += o.Backpressure
	s.Stolen += o.Stolen
	s.Shipped += o.Shipped
	s.LocalHits += o.LocalHits
	s.RemoteHits += o.RemoteHits
}
