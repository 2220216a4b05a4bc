package search

import (
	"fmt"
	"math/bits"

	"repro/internal/grid"
	"repro/internal/sim"
)

// This file holds the ablation variants of the paper's algorithms — the
// design choices DESIGN.md calls out, each isolated so the experiment
// harness (AB1–AB3) can measure what the choice buys.

// WithPhaseReturn makes Algorithm 5 return to the origin only at the end of
// each phase instead of after every search probe. This is the literal
// indentation of the paper's Algorithm 5 pseudocode; the analysis (Lemma
// 3.13 via Lemma 3.9) however needs every probe to start at the origin, so
// the per-probe return is the faithful semantics. The ablation measures the
// cost of the discrepancy: probes chained from wherever the previous one
// ended lose the per-probe visit guarantee, biasing coverage away from the
// origin's neighbourhood.
func WithPhaseReturn() UniformOption {
	return func(u *Uniform) { u.phaseReturn = true }
}

// NonUniformFixed is the AB3 ablation of Algorithm 1: instead of geometric
// walk lengths produced by coin(k, ℓ) (approximate counting, ⌈log log D⌉
// bits), each directed walk's length is drawn uniformly from {0, ..., 2^m−1}
// (m = ⌈log D⌉) and counted down exactly. Performance is comparable — the
// per-iteration visit distribution over the square is at least as uniform —
// but the agent must store the exact counter: b = Θ(log D) and the uniform
// draw itself needs probabilities of 2^{-m}, so χ = Θ(log D). The contrast
// against NonUniform is the paper's core point: approximate counting buys
// an exponential reduction in selection complexity at no asymptotic
// performance cost.
type NonUniformFixed struct {
	d int64
	m uint // walk lengths drawn from {0..2^m - 1}
}

var _ sim.Program = (*NonUniformFixed)(nil)

// NewNonUniformFixed configures the fixed-length-walk ablation for target
// distance d ≥ 2.
func NewNonUniformFixed(d int64) (*NonUniformFixed, error) {
	if d < 2 {
		return nil, fmt.Errorf("search: distance %d must be at least 2", d)
	}
	if d > MaxDistance {
		return nil, fmt.Errorf("search: distance %d exceeds maximum %d", d, MaxDistance)
	}
	return &NonUniformFixed{
		d: d,
		m: uint(bits.Len64(uint64(d))), // lengths up to 2^m - 1 ≥ D
	}, nil
}

// NonUniformFixedFactory returns a sim.Factory for the ablation.
func NonUniformFixedFactory(d int64) (sim.Factory, error) {
	p, err := NewNonUniformFixed(d)
	if err != nil {
		return nil, err
	}
	return func() sim.Program { return p }, nil
}

// Audit reports the Θ(log D) account of the ablation.
func (p *NonUniformFixed) Audit() Audit {
	regs := []Register{
		{Name: "control (Algorithm 1 skeleton)", Bits: 3},
		{Name: "exact walk counter", Bits: int(p.m)},
	}
	return Audit{
		Algorithm: "non-uniform-fixed-walks",
		Ell:       p.m, // the uniform length draw uses probability 2^{-m}
		Registers: regs,
		B:         sumRegisters(regs),
	}
}

// Run executes iterations with exact uniformly-drawn walk lengths. Each
// walk moves exactly its drawn length, stopping early on a found target or
// an exhausted budget.
func (p *NonUniformFixed) Run(env *sim.Env) error {
	src := env.Src()
	span := int64(1) << p.m
	for !env.Done() {
		vert := grid.Down
		if src.Bool() {
			vert = grid.Up
		}
		env.Advance(vert, uint64(src.Intn(span)))
		if env.Done() {
			return nil
		}
		horiz := grid.Left
		if src.Bool() {
			horiz = grid.Right
		}
		env.Advance(horiz, uint64(src.Intn(span)))
		if env.Done() {
			return nil
		}
		env.ReturnToOrigin()
	}
	return nil
}
