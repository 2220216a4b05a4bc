package experiment

import (
	"testing"

	"repro/internal/scenario"
)

// TestS2QuickSummaryGolden pins the quick S2 sweep: the static worlds,
// ring targets and crash faults under Algorithm 1 and the random walk,
// whose run-length and block kernels must reproduce the per-move loop's
// results exactly.
func TestS2QuickSummaryGolden(t *testing.T) {
	checkQuickSummaryGolden(t, s2Sweep(), 11)
}

// TestS2FullGridRunsOnTheAsyncEngine checks that the full S2 grid's
// scenario axis holds every registered preset that s2Point can run on the
// asynchronous engine, and no rounds-only one: sim.Run refuses the
// adaptive adversary, and a heterogeneous colony would fill a row with a
// single-algorithm run.
func TestS2FullGridRunsOnTheAsyncEngine(t *testing.T) {
	g := s2Grid(Config{})
	var specs []string
	for _, a := range g.Axes {
		if a.Name == "scenario" {
			specs = a.Values
		}
	}
	onAxis := map[string]bool{}
	for _, spec := range specs {
		onAxis[spec] = true
	}
	var roundsOnly int
	for _, name := range scenario.Names() {
		scn, err := scenario.Build(name, 32)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if scn.RoundsOnly() {
			roundsOnly++
		}
		if onAxis[name] == scn.RoundsOnly() {
			t.Errorf("preset %s (rounds-only %v): on the full S2 grid = %v", name, scn.RoundsOnly(), onAxis[name])
		}
	}
	if roundsOnly == 0 {
		t.Error("no registered preset is rounds-only: the check above checks nothing")
	}
	if want := len(scenario.Names()) - roundsOnly; len(specs) != want {
		t.Errorf("full S2 grid has %d scenarios, want %d", len(specs), want)
	}
}
