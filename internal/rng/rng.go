// Package rng is the randomness substrate for the ANTS simulations.
//
// The paper's model restricts agents to probabilities that are bounded from
// below by 1/2^ℓ; the natural primitive is therefore a dyadic coin. This
// package provides a fast deterministic generator (xoshiro256**), cheap
// derivation of independent substreams (one per agent per trial, via
// SplitMix64 seeding), dyadic Bernoulli coins, and samplers built on top of
// them. Everything is reproducible from a single root seed.
package rng

import "math/bits"

// Source is a deterministic pseudo-random generator. It intentionally
// mirrors the subset of math/rand/v2 the simulations need so that agent code
// depends only on this package.
type Source struct {
	// The xoshiro256** state, as four named scalars rather than a [4]uint64:
	// field access keeps Uint64 within the compiler's inlining budget (an
	// indexed array body does not fit), which matters because the engines
	// draw once per Markov step.
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via SplitMix64, so that any seed —
// including 0 — yields a well-mixed state.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream identified by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	sm, r.s0 = splitMix64(sm)
	sm, r.s1 = splitMix64(sm)
	sm, r.s2 = splitMix64(sm)
	_, r.s3 = splitMix64(sm)
	// xoshiro's all-zero state is absorbing; splitmix cannot produce four
	// zero outputs from any input, but guard anyway for robustness.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**). It
// stays within the compiler's inlining budget: the simulation engines call
// it once per Markov step, and the call overhead would otherwise dominate
// the kernel.
func (r *Source) Uint64() uint64 {
	var out uint64
	out, r.s0, r.s1, r.s2, r.s3 = next(r.s0, r.s1, r.s2, r.s3)
	return out
}

// next is one xoshiro256** step over the state as values: it returns the
// output word and the new state. A loop that keeps the state in locals
// and steps it through next holds the state in registers; one that calls
// Uint64 on a local Source takes its address and keeps it in memory.
func next(s0, s1, s2, s3 uint64) (out, t0, t1, t2, t3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Derive returns a new independent Source for substream i of this source's
// stream. It consumes no state from r; the substream identity is a pure
// function of (r's current state, i), hashed through SplitMix64. Use it to
// hand each agent of each trial its own generator.
func (r *Source) Derive(i uint64) *Source {
	var dst Source
	r.DeriveInto(i, &dst)
	return &dst
}

// DeriveInto is Derive without the allocation: it reseeds dst to substream i
// of this source's stream. Engines use it to reuse one Source value per
// agent slot across a whole run.
func (r *Source) DeriveInto(i uint64, dst *Source) {
	seed := r.s0 ^ bits.RotateLeft64(r.s1, 13) ^ bits.RotateLeft64(r.s2, 29) ^ r.s3
	_, h := splitMix64(seed ^ (i+1)*0xd1342543de82ef95)
	dst.Reseed(h)
}

// Intn returns a uniformly random integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int64) int64 {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int64(hi)
}

// Float64 returns a uniformly random float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// jumpPoly is the xoshiro256** 2^128-step jump polynomial.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the source by 2^128 steps in O(1) amortized work. Two
// sources separated by a Jump have provably non-overlapping output streams
// for any realistic draw count — a stronger guarantee than Derive's hashed
// substreams when overlap must be ruled out, at the cost of being
// sequential (stream i requires i jumps).
func (r *Source) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(uint64(1)<<uint(b)) != 0 {
				s0 ^= r.s0
				s1 ^= r.s1
				s2 ^= r.s2
				s3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}
