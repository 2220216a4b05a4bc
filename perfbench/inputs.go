package main

import (
	"math"

	"repro/internal/grid"
)

// The benchmark generates every op's inputs itself, from the workload seed
// and the op index, with its own generator; the program under test only
// receives the generated values.

// warmupSeed is the seed of the warm-up op's inputs.
const warmupSeed = 0x5eed_0f_5e7_0b

// gen is a SplitMix64 stream.
type gen struct{ s uint64 }

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) (n > 0; the modulo bias is irrelevant at
// the sizes used here).
func (g *gen) intn(n int64) int64 { return int64(g.next() % uint64(n)) }

// opGen returns the input stream of op i under the workload seed; the
// warm-up op (i < 0) draws from warmupSeed instead.
func opGen(seed uint64, i int) *gen {
	if i < 0 {
		seed = warmupSeed
	}
	g := &gen{s: seed}
	g.s ^= (&gen{s: uint64(i) + 1}).next()
	return g
}

// cellOf picks which of n cells op i uses: cells cycle with the op index,
// and the warm-up op (i < 0) uses the first.
func cellOf(i, n int) int {
	if i < 0 {
		return 0
	}
	return i % n
}

// strata is the number of equal-size distance strata a target can be drawn
// from. Ops cycle through them, so every run places its targets at the
// same mix of distances and the spread of hitting times does not depend on
// the seed; over a whole cycle the targets are uniform in the ball.
const strata = 8

// stratumPoint draws a point uniformly from stratum j (0 ≤ j < strata) of
// the max-norm ball of radius d without the origin. The ball's points are
// ordered by ring (see ringPoint) and stratum j is the j-th of strata
// equal runs of that order, so low strata lie near the origin.
func stratumPoint(g *gen, d int64, j int) grid.Point {
	n := (2*d+1)*(2*d+1) - 1
	lo, hi := int64(j)*n/strata, int64(j+1)*n/strata
	return ringPoint(lo + g.intn(hi-lo))
}

// ringPoint returns point k (k ≥ 0) of the plane without the origin in
// ring order: ring r ≥ 1 (the 8r points at max-norm r) holds indexes
// [(2r−1)²−1, (2r+1)²−1), walked side by side.
func ringPoint(k int64) grid.Point {
	r := (isqrt(k+1) + 1) / 2
	off := k - ((2*r-1)*(2*r-1) - 1)
	side, pos := off/(2*r), off%(2*r)
	switch side {
	case 0:
		return grid.Point{X: -r + pos, Y: -r}
	case 1:
		return grid.Point{X: r, Y: -r + pos}
	case 2:
		return grid.Point{X: r - pos, Y: r}
	default:
		return grid.Point{X: -r, Y: r - pos}
	}
}

// isqrt is the integer square root of v ≥ 0.
func isqrt(v int64) int64 {
	r := int64(math.Sqrt(float64(v)))
	for r*r > v {
		r--
	}
	for (r+1)*(r+1) <= v {
		r++
	}
	return r
}
