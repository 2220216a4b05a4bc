package search

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Walk performs the paper's Algorithm 3, walk(k, ℓ, dir): move one step in
// direction dir for each consecutive heads of the composite coin(k, ℓ).
// The walk length is geometric with stopping probability 1/2^{kℓ}, so by
// Lemma 3.8 it reaches each i ≤ 2^{kℓ} with probability at least
// 1/2^{kℓ+2} and its expectation is below 2^{kℓ}.
//
// Walk stops early (returning nil) when the environment reports done, so a
// found target or exhausted budget terminates the enclosing algorithm
// promptly.
//
// The walk runs segment by segment: env.Straight bounds how far it can go
// before it could become done, coin.HeadsRun draws at most that many heads
// in one loop, and env.Advance applies them at once. Both split points
// fall exactly where the per-step loop (flip, move, check) would look, so
// the coin draws and the agent's trajectory are the same as taking one
// step per heads. In the Quadrant and half-plane worlds a segment also
// ends at the wall ahead, and a walk pressed against it advances in place
// a whole segment at a time, every blocked move charged. Where each move
// needs its own checks (other worlds, schedules, faults, hooks, recorded
// paths, indexed targets) Straight returns 1 and the same loop takes one
// flip and one move at a time.
func Walk(env *sim.Env, coin *rng.Coin, k uint, dir grid.Direction) error {
	if !dir.Valid() {
		return fmt.Errorf("search: invalid walk direction %v", dir)
	}
	for {
		n, tails := coin.HeadsRun(k, env.Straight(dir))
		env.Advance(dir, n)
		if tails || env.Done() {
			return nil
		}
	}
}

// BoxSearch performs the paper's Algorithm 4, search(k, ℓ): a vertical walk
// in a fair random direction followed by a horizontal walk in a fair random
// direction. Called at the origin it visits each point (x, y) of the square
// of side 2^{kℓ} with probability at least 1/2^{2kℓ+6} (Lemma 3.9; the
// bound quoted per-coordinate is 1/2^{kℓ+6} for hitting the column times
// the constant for covering the row).
func BoxSearch(env *sim.Env, coin *rng.Coin, k uint) error {
	vert := grid.Down
	if coin.Fair() {
		vert = grid.Up
	}
	if err := Walk(env, coin, k, vert); err != nil {
		return err
	}
	if env.Done() {
		return nil
	}
	horiz := grid.Left
	if coin.Fair() {
		horiz = grid.Right
	}
	return Walk(env, coin, k, horiz)
}
