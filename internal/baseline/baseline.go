// Package baseline implements the comparison algorithms the paper measures
// its contribution against:
//
//   - PureRandomWalk — the uniform random walk; Alon et al. bound its
//     multi-agent speed-up by min{log n, D}, the paper's motivating
//     negative example.
//   - Spiral — the deterministic single-agent square spiral, which is
//     move-optimal for one agent (Θ(D²) worst case) but gains nothing from
//     extra agents.
//   - Feinerman — a harmonic-search-style algorithm in the spirit of
//     Feinerman et al. [12]: the agent knows n, repeatedly picks a uniform
//     random cell within a doubling distance estimate, walks there, and
//     spirals over a patch of ≈ estimate²/n cells. It achieves the optimal
//     O(D²/n + D) expected moves but needs Θ(log D) memory bits to store
//     coordinates, i.e. χ = Θ(log D) — the selection-complexity price the
//     paper's algorithms avoid.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/search"
	"repro/internal/sim"
)

// PureRandomWalk is the uniform random walk program: every move picks one
// of the four directions with probability 1/4. It never returns to the
// origin.
type PureRandomWalk struct{}

var _ sim.Program = PureRandomWalk{}

// RandomWalkFactory returns a factory for the uniform random walk.
func RandomWalkFactory() sim.Factory {
	return func() sim.Program { return PureRandomWalk{} }
}

// walkDX and walkDY hold the displacement of grid.Directions[i] (up,
// down, left, right), so a block of moves sums its draws without a call
// per move.
var walkDX, walkDY = [4]int64{0, 0, -1, 1}, [4]int64{1, -1, 0, 0}

// Run implements sim.Program. The walk runs block by block: env.Free
// bounds how many moves cannot reach a target or a wall, the loop draws
// that many directions and env.Shift applies their net displacement at
// once. Each draw is src.Uint64()>>62, which is exactly what Intn(4)
// returns for the same word, so the stream and the trajectory are those
// of one Move per draw. A block of one move — near a target or a wall, or
// whenever each move needs its own checks — goes through Move.
func (PureRandomWalk) Run(env *sim.Env) error {
	src := env.Src()
	for !env.Done() {
		n := env.Free()
		var dx, dy int64
		var r uint64
		for i := n; i > 0; i-- {
			r = src.Uint64() >> 62
			dx += walkDX[r]
			dy += walkDY[r]
		}
		if n > 1 {
			env.Shift(dx, dy, n)
			continue
		}
		if err := env.Move(grid.Directions[r]); err != nil {
			if errors.Is(err, sim.ErrBudget) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Audit reports the walk's selection complexity: a single state per
// direction (b = 2) and probabilities of 1/4 (ℓ = 2).
func (PureRandomWalk) Audit() search.Audit {
	return search.Audit{
		Algorithm: "random-walk",
		Ell:       2,
		Registers: []search.Register{{Name: "direction state", Bits: 2}},
		B:         2,
	}
}

// Spiral is the deterministic square spiral: right 1, up 1, left 2, down 2,
// right 3, ... It visits every cell of the ball of radius r within
// (2r+1)² + O(r) moves and is the classic single-agent baseline.
type Spiral struct{}

var _ sim.Program = Spiral{}

// SpiralFactory returns a factory for the spiral program.
func SpiralFactory() sim.Factory {
	return func() sim.Program { return Spiral{} }
}

// Run implements sim.Program.
func (Spiral) Run(env *sim.Env) error {
	spiralFrom(env, -1)
	return nil
}

// spiralFrom walks a square spiral from the current position, stopping when
// the environment is done, when the budget runs out, or after maxMoves
// moves (maxMoves < 0 means unbounded).
func spiralFrom(env *sim.Env, maxMoves int64) {
	dirs := [4]grid.Direction{grid.Right, grid.Up, grid.Left, grid.Down}
	start := env.Moves()
	for leg := uint64(1); ; leg++ {
		for rep := uint64(0); rep < 2; rep++ { // two legs per length: e.g. right then up
			n := leg
			if maxMoves >= 0 {
				n = min(n, uint64(maxMoves)-(env.Moves()-start))
			}
			if n == 0 || env.Done() {
				return
			}
			env.Advance(dirs[(2*(leg-1)+rep)%4], n)
		}
	}
}

// Audit reports the spiral's selection complexity: it is deterministic
// (ℓ = 1) but must count leg lengths up to D, so b = Θ(log D).
func (Spiral) AuditForDistance(d int64) search.Audit {
	bits := search.CeilLog2(d) + 2
	return search.Audit{
		Algorithm: "spiral",
		Ell:       1,
		Registers: []search.Register{
			{Name: "leg length counter", Bits: bits},
			{Name: "direction + phase", Bits: 3},
		},
		B: bits + 3,
	}
}

// Feinerman is the harmonic-search-style baseline: phase i = 1, 2, ...
// doubles the distance estimate Dᵢ = 2^i; within a phase the agent picks a
// uniformly random cell p with ‖p‖ ≤ Dᵢ, walks to it directly, spirals over
// ≈ 4·Dᵢ²/n + Dᵢ cells, and returns to the origin. Knowing n, the patch
// sizes partition the ball among agents, giving the optimal O(D²/n + D)
// expected moves (the bound of [12]) at the cost of Θ(log D) memory.
type Feinerman struct {
	n int
}

var _ sim.Program = (*Feinerman)(nil)

// NewFeinerman configures the baseline for n agents.
func NewFeinerman(n int) (*Feinerman, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: agent count %d must be positive", n)
	}
	return &Feinerman{n: n}, nil
}

// FeinermanFactory returns a factory for the configuration.
func FeinermanFactory(n int) (sim.Factory, error) {
	p, err := NewFeinerman(n)
	if err != nil {
		return nil, err
	}
	return func() sim.Program { return p }, nil
}

// Run implements sim.Program.
func (p *Feinerman) Run(env *sim.Env) error {
	src := env.Src()
	for phase := uint(1); !env.Done(); phase++ {
		if phase > 40 {
			phase = 40 // clamp the estimate; budgets end runs long before
		}
		di := int64(1) << phase
		patch := 4*di*di/int64(p.n) + di
		// Repeat enough probes that the n agents together cover the ball
		// w.h.p.: each probe covers patch cells of ~(2Dᵢ+1)² ≈ 4Dᵢ².
		probes := int64(4)
		for r := int64(0); r < probes && !env.Done(); r++ {
			dest := grid.Point{
				X: src.Intn(2*di+1) - di,
				Y: src.Intn(2*di+1) - di,
			}
			walkTo(env, dest)
			if env.Done() {
				return nil
			}
			spiralFrom(env, patch)
			if env.Done() {
				return nil
			}
			env.ReturnToOrigin()
		}
	}
	return nil
}

// AuditForDistance reports the Θ(log D) memory account of the baseline.
func (p *Feinerman) AuditForDistance(d int64) search.Audit {
	coord := search.CeilLog2(2*d+1) + 1
	regs := []search.Register{
		{Name: "destination x", Bits: coord},
		{Name: "destination y", Bits: coord},
		{Name: "spiral counter", Bits: coord + 2},
		{Name: "control", Bits: 3},
	}
	b := 0
	for _, r := range regs {
		b += r.Bits
	}
	return search.Audit{
		Algorithm: "feinerman",
		Ell:       uint(coord), // uniform cell choice uses probabilities ~1/2^{log D}
		Registers: regs,
		B:         b,
	}
}

// walkTo moves the agent from its current position to dest along an L-path
// (x first, then y), stopping early when the agent becomes done. Each leg
// is re-aimed after its Advance, since a world may block some of its moves.
func walkTo(env *sim.Env, dest grid.Point) {
	for {
		switch off := dest.Sub(env.Pos()); {
		case off.X > 0:
			env.Advance(grid.Right, uint64(off.X))
		case off.X < 0:
			env.Advance(grid.Left, uint64(-off.X))
		case off.Y > 0:
			env.Advance(grid.Up, uint64(off.Y))
		case off.Y < 0:
			env.Advance(grid.Down, uint64(-off.Y))
		default:
			return
		}
		if env.Done() {
			return
		}
	}
}
