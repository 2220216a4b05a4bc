package main

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sim"
)

// Swarm op classes. The rounds engine runs each one down a different path,
// so a change to the segment kernel, to the visit sets or to the
// fast/general split shows in its own class:
//
//   - hit: Algorithm 1's automaton, StopOnFound, open plane, no tracking —
//     the kernel-bound fast path;
//   - cover: drift and random-walk machines with TrackRadius set — the
//     dense visit window;
//   - field: the field preset, an obstacle world with sparse visits — the
//     general path and the spatial index.
var swarmClasses = []string{"hit", "cover", "field"}

const (
	// hit: one StopOnFound run per target stratum of the hitD-ball, so
	// every op averages the same mix of hitting times.
	hitD      = 128
	hitAgents = 1024
	hitTrials = strata
	// cover: fixed-length runs tracked within coverRadius (dense window).
	coverAgents = 2048
	coverRounds = 4096
	coverRadius = 1024
	// field: fixed-length runs of Algorithm 1's automaton on the field
	// preset built for fieldD, tracked sparsely.
	fieldD      = 128
	fieldAgents = 1024
	fieldRounds = 2048
)

type swarmWorkload struct {
	seed  uint64
	tr    *tracer
	hit   *automata.Machine
	cover []*automata.Machine // alternated by op
	field *automata.Machine
	world scenario.Scenario
	// The first field op's visits, kept for check.
	fieldVisits *grid.VisitSet
	fieldOp     int
}

func setupSwarm(seed uint64, tr *tracer, parent int, _ string) (workload, error) {
	w := &swarmWorkload{seed: seed, tr: tr}
	hit, err := search.Algorithm1Machine(hitD)
	if err != nil {
		return nil, err
	}
	field, err := search.Algorithm1Machine(fieldD)
	if err != nil {
		return nil, err
	}
	drift, err := automata.DriftLineMachine(3)
	if err != nil {
		return nil, err
	}
	w.hit, w.field, w.cover = hit, field, []*automata.Machine{drift, automata.RandomWalk()}
	for _, m := range []*automata.Machine{hit, field, drift, w.cover[1]} {
		sp := tr.start("automata.compile", parent, setupOp)
		m.Compiled()
		tr.end(sp)
	}
	sp := tr.start("scenario.build", parent, setupOp)
	w.world, err = scenario.Build("field", fieldD)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *swarmWorkload) op(i, parent int) (string, error) {
	g := opGen(w.seed, i)
	class := swarmClasses[cellOf(i, len(swarmClasses))]
	switch class {
	case "hit":
		return w.hitOp(i, parent, g)
	case "cover":
		m := w.cover[cellOf(i/len(swarmClasses), len(w.cover))]
		cfg := sim.RoundsConfig{Machine: m, NumAgents: coverAgents, Rounds: coverRounds, TrackRadius: coverRadius, Workers: engineWorkers}
		return w.trackedOp(i, parent, g, class, cfg)
	default:
		cfg := w.world.ApplyRounds(sim.RoundsConfig{
			Machine: w.field, NumAgents: fieldAgents, Rounds: fieldRounds,
			TrackRadius: 4 * fieldD, SparseVisits: true, Workers: engineWorkers,
		})
		return w.trackedOp(i, parent, g, class, cfg)
	}
}

// hitOp runs one search per target stratum and returns the hitting rounds.
func (w *swarmWorkload) hitOp(i, parent int, g *gen) (string, error) {
	out := "hit"
	for t := 0; t < hitTrials; t++ {
		target := stratumPoint(g, hitD, t)
		cfg := sim.RoundsConfig{
			Machine: w.hit, NumAgents: hitAgents, Rounds: 64 * hitD * hitD,
			Target: target, HasTarget: true, StopOnFound: true, Workers: engineWorkers,
		}
		sp := w.tr.start("sim.rounds.hit", parent, i)
		res, err := sim.RunRounds(cfg, nil, g.next())
		w.tr.end(sp)
		if err != nil {
			return "", err
		}
		switch {
		case !res.Found:
			return "", fmt.Errorf("target %v not found in %d rounds", target, cfg.Rounds)
		case res.FoundRound < uint64(target.L1Norm()):
			return "", fmt.Errorf("target %v found in round %d, nearer than its distance", target, res.FoundRound)
		case res.RoundsRun != res.FoundRound:
			return "", fmt.Errorf("StopOnFound ran %d rounds past the hit in round %d", res.RoundsRun, res.FoundRound)
		}
		w.tr.count(i, "hit.agent_rounds", float64(hitAgents)*float64(res.RoundsRun))
		out += fmt.Sprintf(" %v@%d", target, res.FoundRound)
	}
	return out, nil
}

// trackedOp runs one fixed-length tracked run and checks its visit set.
func (w *swarmWorkload) trackedOp(i, parent int, g *gen, class string, cfg sim.RoundsConfig) (string, error) {
	sp := w.tr.start("sim.rounds."+class, parent, i)
	res, err := sim.RunRounds(cfg, nil, g.next())
	w.tr.end(sp)
	if err != nil {
		return "", err
	}
	if res.RoundsRun != cfg.Rounds {
		return "", fmt.Errorf("ran %d of %d rounds", res.RoundsRun, cfg.Rounds)
	}
	v := res.Visited
	sp = w.tr.start("grid.coverage", parent, i)
	count, inBall, frac := v.Count(), v.CountInBall(), v.CoverageFraction()
	w.tr.end(sp)
	ball := grid.BallSize(cfg.TrackRadius)
	switch {
	case count < 1 || count > int64(cfg.NumAgents)*int64(cfg.Rounds)+1:
		return "", fmt.Errorf("%d visited cells from %d agents in %d rounds", count, cfg.NumAgents, cfg.Rounds)
	case inBall > count || inBall > ball:
		return "", fmt.Errorf("%d cells in the ball of %d, %d visited", inBall, ball, count)
	case frac != float64(inBall)/float64(ball):
		return "", fmt.Errorf("coverage fraction %v, want %d/%d", frac, inBall, ball)
	}
	if class == "field" && i >= 0 && w.fieldVisits == nil {
		w.fieldVisits, w.fieldOp = v, i
	}
	w.tr.count(i, class+".agent_rounds", float64(cfg.NumAgents)*float64(res.RoundsRun))
	w.tr.count(i, "grid.visited_cells", float64(count))
	w.tr.count(i, "grid.tracked_ops", 1)
	return fmt.Sprintf("%s found=%v round=%d visited=%d in_ball=%d", class, res.Found, res.FoundRound, count, inBall), nil
}

// check walks the visit set of the phase's first field op and fails that
// op if an agent entered an obstacle.
func (w *swarmWorkload) check() (int, error) {
	if w.fieldVisits == nil {
		return 0, nil
	}
	bad := 0
	w.fieldVisits.Each(func(p grid.Point) {
		if !w.world.World.Contains(p) {
			bad++
		}
	})
	if bad > 0 {
		fmt.Printf("op %d: %d visited cells lie inside obstacles\n", w.fieldOp, bad)
		return 1, nil
	}
	return 0, nil
}

func (w *swarmWorkload) layers(ops int) map[string]float64 {
	m := map[string]float64{}
	for _, class := range swarmClasses {
		rounds := w.tr.counts[class+".agent_rounds"]
		n := float64(len(w.tr.named("sim.rounds." + class)))
		if class == "hit" {
			n /= hitTrials
		}
		m["sim.rounds."+class+".ns_per_agent_round"] = float64(w.tr.total("sim.rounds."+class)) / rounds
		m["sim.rounds."+class+".agent_rounds"] = rounds / n
	}
	m["grid.visited_cells"] = w.tr.counts["grid.visited_cells"] / w.tr.counts["grid.tracked_ops"]
	m["grid.coverage_ms"] = median(w.tr.millis("grid.coverage"))
	return m
}

func (w *swarmWorkload) close() error { return nil }
