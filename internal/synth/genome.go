// Package synth searches the automata design space: a simulated-annealing
// evolutionary loop over automata.Spec hunting, per state budget, for the
// machine whose adversarial hit-time curve comes closest to the Section 4
// lower bound. Candidates are scored through the sweep layer, so every
// evaluation is a content-addressed cache point — deterministic by seed,
// resumable after interruption with zero re-executed kernel calls — and a
// batch of candidates can equally run locally or fan out across a worker
// fleet as shard jobs over an inline evaluation grid (internal/cluster).
//
// The moving parts:
//
//   - Mutate applies one operator (add/remove state, rewire edge, perturb
//     weights, toggle grid action) to a valid Spec and returns a valid
//     Spec in canonical form (states s0..sN-1, probabilities in 64ths,
//     edges sorted); genome.go holds the quantized representation the
//     operators work on.
//   - EvalGrid/Kernel score one candidate at several target distances
//     against its own adversarial placement (internal/lowerbound), giving
//     a Curve of expected-hit-moves/bound ratios; eval.go.
//   - Search runs the per-budget annealing loop through an Evaluator
//     (LocalEvaluator here, cluster.SynthEvaluator for fleets); search.go.
//   - WriteArtifacts renders the byte-stable JSON/CSV result table plus
//     one loadable Spec file per state budget; artifact.go.
//
// Determinism contract: the search trajectory and the best-found machines
// are a function of (Config, seed) only — never of shard count, fleet
// size, cache state, or resume boundaries. Candidate evaluation seeds
// derive from the candidate's canonical JSON and the target distance, not
// from generation or expansion order, which is what makes a killed run's
// cache entries exactly reusable by its resumption.
package synth

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/automata"
)

// WeightDenom is the probability quantum of synthesized machines: every
// transition probability is an integer multiple of 1/WeightDenom. 64ths
// are exact in float64, so quantized rows sum to exactly 1 (never
// tripping the row-sum tolerance) and specs round-trip through JSON
// bit-identically. The quantum also floors MinProb at 1/64, capping ℓ at
// 6 and keeping χ = b + log₂ℓ honest for small machines.
const WeightDenom = 64

// labelSet is the palette of grid actions a synthesized state can carry,
// in toggle order.
var labelSet = []automata.Label{
	automata.LabelNone,
	automata.LabelUp,
	automata.LabelDown,
	automata.LabelLeft,
	automata.LabelRight,
	automata.LabelOrigin,
}

// genome is the mutable quantized form the operators act on: per-state
// labels and an integer transition matrix whose rows each sum to
// WeightDenom. The start state is tracked by index; canonical specs name
// states s0..sN-1 in index order.
type genome struct {
	labels []automata.Label
	rows   [][]int
	start  int
}

// fromSpec parses and validates a spec (via Build) and quantizes it to a
// genome. Probabilities are rounded to 64ths; rounding drift is repaired
// on the row's largest entries, so every row sums to WeightDenom exactly.
func fromSpec(s *automata.Spec) (*genome, error) {
	m, err := s.Build()
	if err != nil {
		return nil, err
	}
	n := m.NumStates()
	g := &genome{
		labels: make([]automata.Label, n),
		rows:   make([][]int, n),
		start:  m.Start(),
	}
	for i := 0; i < n; i++ {
		g.labels[i] = m.Label(i)
		g.rows[i] = make([]int, n)
		sum := 0
		for j := 0; j < n; j++ {
			w := int(math.Round(m.Prob(i, j) * WeightDenom))
			g.rows[i][j] = w
			sum += w
		}
		for sum != WeightDenom {
			// Repair rounding drift on the largest entry (first of equals,
			// for determinism); it is the entry least distorted relatively.
			best := -1
			for j, w := range g.rows[i] {
				if w > 0 && (best < 0 || w > g.rows[i][best]) {
					best = j
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("synth: state %q row quantized to zero", m.Name(i))
			}
			if sum > WeightDenom {
				g.rows[i][best]--
				sum--
			} else {
				g.rows[i][best]++
				sum++
			}
		}
	}
	return g, nil
}

// spec renders the genome in canonical form: states named s0..sN-1 in
// index order, only positive edges, probabilities k/64, edges sorted the
// way Machine.ToSpec sorts them — so the output is a MarshalSpec/ParseSpec
// fixed point.
func (g *genome) spec() *automata.Spec {
	s := &automata.Spec{Start: stateName(g.start)}
	for i, l := range g.labels {
		s.States = append(s.States, automata.StateSpec{Name: stateName(i), Label: l.String()})
	}
	for i, row := range g.rows {
		for j, w := range row {
			if w > 0 {
				s.Edges = append(s.Edges, automata.EdgeSpec{
					From: stateName(i),
					To:   stateName(j),
					P:    float64(w) / WeightDenom,
				})
			}
		}
	}
	sort.Slice(s.Edges, func(a, b int) bool {
		if s.Edges[a].From != s.Edges[b].From {
			return s.Edges[a].From < s.Edges[b].From
		}
		return s.Edges[a].To < s.Edges[b].To
	})
	return s
}

func stateName(i int) string { return fmt.Sprintf("s%d", i) }

// CompactJSON renders a spec as canonical single-line JSON — the form
// candidate machines travel in: as sweep axis values (and therefore cache
// keys), as the synth_specs of shard jobs, and as search-state identity for
// deterministic tie-breaking.
func CompactJSON(s *automata.Spec) (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("synth: marshal spec: %w", err)
	}
	return string(data), nil
}

// SpecFromJSON decodes a candidate spec from its canonical JSON form,
// rejecting unknown fields.
func SpecFromJSON(v string) (*automata.Spec, error) {
	var s automata.Spec
	dec := json.NewDecoder(strings.NewReader(v))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("synth: decode candidate spec: %w", err)
	}
	return &s, nil
}

// Canonicalize quantizes and renames a valid spec into the canonical form
// mutations preserve: states s0..sN-1, probabilities in 64ths, edges
// sorted. It is how externally written seeds enter the search.
func Canonicalize(s *automata.Spec) (*automata.Spec, error) {
	g, err := fromSpec(s)
	if err != nil {
		return nil, err
	}
	return g.spec(), nil
}
