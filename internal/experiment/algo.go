package experiment

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/baseline"
	"repro/internal/search"
	"repro/internal/sim"
)

// DefaultMoveBudget is the per-agent move budget used when a caller does
// not set one: 512·D², comfortably past the D²/n + D bound for every
// agent count. The antsim CLI (-budget 0) and the service's job-spec
// normalization both use it, which is what keeps a daemon scenario job
// and the equivalent CLI invocation describing identical computations.
// The product saturates at math.MaxUint64 instead of wrapping, so a huge
// D never yields a short (or zero, i.e. unlimited) budget.
func DefaultMoveBudget(d int64) uint64 {
	hi, sq := bits.Mul64(uint64(d), uint64(d))
	if hi != 0 || sq > math.MaxUint64/512 {
		return math.MaxUint64
	}
	return sq * 512
}

// AlgorithmNames lists the algorithm names BuildAlgorithm accepts, in
// documentation order: the paper's two contributed algorithms first, the
// baselines after.
func AlgorithmNames() []string {
	return []string{"non-uniform", "uniform", "feinerman", "random-walk", "spiral"}
}

// BuildAlgorithm resolves an algorithm name to a simulation factory plus
// the rendered χ audit of the configuration. It is the single place a
// user-facing algorithm name (CLI flag, service job spec) becomes a
// runnable program: d is the target distance the non-uniform algorithm is
// built for (and the distance the uniform/baseline audits are evaluated
// at), n the agent count, ell the base-coin precision ℓ.
func BuildAlgorithm(algo string, d int64, n int, ell uint) (sim.Factory, string, error) {
	switch algo {
	case "non-uniform":
		prog, err := search.NewNonUniform(d, ell)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.Audit().String(), nil
	case "uniform":
		prog, err := search.NewUniform(ell, n)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.AuditForDistance(d).String(), nil
	case "feinerman":
		prog, err := baseline.NewFeinerman(n)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.AuditForDistance(d).String(), nil
	case "random-walk":
		return baseline.RandomWalkFactory(), baseline.PureRandomWalk{}.Audit().String(), nil
	case "spiral":
		return baseline.SpiralFactory(), (baseline.Spiral{}).AuditForDistance(d).String(), nil
	default:
		return nil, "", fmt.Errorf("experiment: unknown algorithm %q (valid: %v)", algo, AlgorithmNames())
	}
}
