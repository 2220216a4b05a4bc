package sim

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/rng"
)

// Placement selects target positions for trials. The paper's bounds are
// stated both for adversarial placements (worst case within distance D)
// and for targets placed uniformly at random in the square of side 2D.
type Placement int

// Target placement strategies.
const (
	// PlaceCorner puts the target at (D, D), the max-norm-distance-D point
	// that is hardest for axis-aligned strategies.
	PlaceCorner Placement = iota + 1
	// PlaceAxis puts the target at (D, 0).
	PlaceAxis
	// PlaceUniformBall draws the target uniformly from the ball of radius
	// D (the paper's "square of side 2D centered at the origin"),
	// excluding the origin.
	PlaceUniformBall
	// PlaceUniformSphere draws the target uniformly from the points at
	// max-norm distance exactly D.
	PlaceUniformSphere
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceCorner:
		return "corner"
	case PlaceAxis:
		return "axis"
	case PlaceUniformBall:
		return "uniform-ball"
	case PlaceUniformSphere:
		return "uniform-sphere"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Pick returns a target at distance (at most) d according to the placement,
// drawing any needed randomness from src.
func (p Placement) Pick(d int64, src *rng.Source) (grid.Point, error) {
	if d < 1 {
		return grid.Point{}, fmt.Errorf("sim: target distance %d must be positive", d)
	}
	switch p {
	case PlaceCorner:
		return grid.Point{X: d, Y: d}, nil
	case PlaceAxis:
		return grid.Point{X: d, Y: 0}, nil
	case PlaceUniformBall:
		for {
			pt := grid.Point{
				X: src.Intn(2*d+1) - d,
				Y: src.Intn(2*d+1) - d,
			}
			if pt != grid.Origin {
				return pt, nil
			}
		}
	case PlaceUniformSphere:
		return grid.SpherePoint(d, src.Intn(grid.SphereSize(d))), nil
	default:
		return grid.Point{}, fmt.Errorf("sim: unknown placement %d", int(p))
	}
}

// RunPlacedTrials is RunTrials with a fresh target drawn per trial from the
// placement at distance d. cfg.Target and cfg.HasTarget are overwritten.
func RunPlacedTrials(cfg Config, place Placement, d int64, factory Factory, trials int, seed uint64) (*TrialStats, error) {
	targetSrc := rng.New(seed).Derive(1 << 62)
	return runTrials(cfg, factory, trials, seed, func(c *Config) error {
		target, err := place.Pick(d, targetSrc)
		c.Target, c.HasTarget = target, true
		return err
	})
}
