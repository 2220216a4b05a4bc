package main

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
)

// searchCell is one (D, n) cell of E1's grid.
type searchCell struct {
	d       int64
	n       int
	factory sim.Factory
}

// searchCells are E1 cells with equal n·D², so every op does about the
// same expected work and the latency distribution has one mode.
var searchCells = [][2]int64{{32, 64}, {64, 16}, {128, 4}}

// searchWorkload runs Non-Uniform-Search (Algorithm 1, ℓ = 1) on the
// asynchronous engine with one worker: each op is one sim.Run of cell
// i mod 3 against a target drawn from the D-ball (uniform over each cycle
// of strata ops).
type searchWorkload struct {
	seed  uint64
	tr    *tracer
	cells []searchCell
}

func setupSearch(seed uint64, tr *tracer, parent int, _ string) (workload, error) {
	w := &searchWorkload{seed: seed, tr: tr}
	for _, c := range searchCells {
		sp := tr.start("search.factory", parent, setupOp)
		f, err := search.NonUniformFactory(c[0], 1)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.cells = append(w.cells, searchCell{d: c[0], n: int(c[1]), factory: f})
	}
	return w, nil
}

func (w *searchWorkload) op(i, parent int) (string, error) {
	c := w.cells[cellOf(i, len(w.cells))]
	g := opGen(w.seed, i)
	target := stratumPoint(g, c.d, cellOf(i/len(w.cells), strata))
	cfg := sim.Config{
		NumAgents:  c.n,
		Target:     target,
		HasTarget:  true,
		MoveBudget: uint64(c.d*c.d) * 512, // E1's budget
		Workers:    engineWorkers,
	}
	root := rng.New(g.next())
	sp := w.tr.start("sim.run", parent, i)
	res, err := sim.Run(cfg, c.factory, root)
	w.tr.end(sp)
	if err != nil {
		return "", err
	}
	var moves uint64
	found := 0
	minMoves := uint64(math.MaxUint64)
	for _, a := range res.Agents {
		moves += a.Moves
		if a.Found {
			found++
			minMoves = min(minMoves, a.Moves)
			// A path from the origin to the target takes at least its
			// L1 distance in moves.
			if a.Moves < uint64(target.L1Norm()) {
				return "", fmt.Errorf("agent found %v after %d moves", target, a.Moves)
			}
		}
	}
	switch {
	case len(res.Agents) != c.n:
		return "", fmt.Errorf("%d agent results for n = %d", len(res.Agents), c.n)
	case !res.Found || found == 0:
		return "", fmt.Errorf("D=%d n=%d: target %v not found within the budget", c.d, c.n, target)
	case res.MinMoves != minMoves:
		return "", fmt.Errorf("MinMoves %d, agents' minimum %d", res.MinMoves, minMoves)
	}
	w.tr.count(i, "sim.moves", float64(moves))
	return fmt.Sprintf("search D=%d n=%d target=%v found=%d min_moves=%d min_steps=%d moves=%d",
		c.d, c.n, target, found, res.MinMoves, res.MinSteps, moves), nil
}

func (w *searchWorkload) check() (int, error) { return 0, nil }

func (w *searchWorkload) layers(ops int) map[string]float64 {
	moves := w.tr.counts["sim.moves"]
	return map[string]float64{
		"sim.run_ms":      median(w.tr.millis("sim.run")),
		"sim.moves":       moves / float64(ops),
		"sim.ns_per_move": float64(w.tr.total("sim.run")) / moves,
	}
}

func (w *searchWorkload) close() error { return nil }
