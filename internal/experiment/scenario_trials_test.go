package experiment

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestScenarioTrialsMatchRunTrials: a scenario run folded from its
// per-trial grid reports exactly what sim.RunTrials reports for the same
// configuration and seed, whatever the engine worker bound, across
// static, faulty and dynamic worlds.
func TestScenarioTrialsMatchRunTrials(t *testing.T) {
	for _, r := range []ScenarioRun{
		{Scenario: "torus", Algo: "non-uniform", D: 8, N: 4, Ell: 1},
		{Scenario: "crash:crash=0.01", Algo: "uniform", D: 8, N: 6, Ell: 2},
		{Scenario: "storm", Algo: "random-walk", D: 8, N: 3, Ell: 1},
		{Scenario: "pursuit", Algo: "feinerman", D: 8, N: 4, Ell: 1},
	} {
		r.Budget = DefaultMoveBudget(r.D)
		for _, workers := range []int{0, 3} {
			rep, err := sweep.Run(r.Grid(5), r.Trial, sweep.Options{Seed: 7, Shards: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", r.Scenario, workers, err)
			}
			got := FoldTrials(rep.Points)
			_, cfg, factory, _, err := r.Build(workers)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunTrials(cfg, factory, 5, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: folded trials %+v, RunTrials %+v", r.Scenario, workers, got, want)
			}
		}
	}
}
