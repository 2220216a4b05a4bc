package service

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateScenarioGoldens rewrites the pinned scenario artifacts:
//
//	go test ./internal/service -run TestScenarioGoldenArtifacts -update
var updateScenarioGoldens = flag.Bool("update", false, "rewrite the golden scenario artifacts under testdata/")

// scenarioGoldens is the table of scenario jobs whose JSON and CSV
// artifacts are pinned under testdata/. It spans static worlds,
// multi-target presets, both fault models, dynamic targets and dynamic
// worlds, every algorithm, ℓ = 2, an explicit budget, and engine worker
// bounds 0 and 3. The last entry is long enough to be interrupted.
var scenarioGoldens = []struct {
	name string
	spec JobSpec
}{
	{"torus", JobSpec{Kind: KindScenario, Scenario: "torus", D: 8, N: 4, Trials: 4, Seed: 1}},
	{"quadrant", JobSpec{Kind: KindScenario, Scenario: "quadrant", Algo: "uniform", D: 8, N: 4, Ell: 2, Trials: 4, Seed: 2, Workers: 3}},
	{"obstacles", JobSpec{Kind: KindScenario, Scenario: "obstacles", Algo: "feinerman", D: 8, N: 4, Trials: 4, Seed: 3}},
	{"far", JobSpec{Kind: KindScenario, Scenario: "far:mult=2", Algo: "spiral", D: 8, N: 2, Trials: 3, Seed: 4, Workers: 3}},
	{"ring", JobSpec{Kind: KindScenario, Scenario: "ring:k=4", Algo: "random-walk", D: 8, N: 4, Budget: 20000, Trials: 6, Seed: 5}},
	{"crash", JobSpec{Kind: KindScenario, Scenario: "crash:crash=0.01", D: 8, N: 8, Ell: 2, Trials: 4, Seed: 6, Workers: 3}},
	{"delayed", JobSpec{Kind: KindScenario, Scenario: "delayed", Algo: "uniform", D: 8, N: 4, Trials: 4, Seed: 7}},
	{"pursuit", JobSpec{Kind: KindScenario, Scenario: "pursuit:every=16", Algo: "random-walk", D: 8, N: 4, Budget: 200000, Trials: 5, Seed: 8}},
	{"blink", JobSpec{Kind: KindScenario, Scenario: "blink", Algo: "spiral", D: 8, N: 4, Trials: 4, Seed: 9}},
	{"storm", JobSpec{Kind: KindScenario, Scenario: "storm", D: 8, N: 4, Trials: 4, Seed: 10, Workers: 3}},
	{"flicker", JobSpec{Kind: KindScenario, Scenario: "flicker", Algo: "feinerman", D: 8, N: 4, Trials: 4, Seed: 11}},
	{"open-long", JobSpec{Kind: KindScenario, Scenario: "open", Algo: "random-walk", D: 32, N: 1, Trials: 64, Seed: 12}},
}

// checkScenarioGoldens byte-compares every golden job's artifacts, as svc
// serves them under the given ids, against testdata/ (or rewrites them
// with -update).
func checkScenarioGoldens(t *testing.T, svc *Service, ids []string) {
	t.Helper()
	for i, g := range scenarioGoldens {
		for _, format := range []string{"json", "csv"} {
			got, err := svc.Artifact(ids[i], format)
			if err != nil {
				t.Fatalf("%s (%s): %v", g.name, ids[i], err)
			}
			path := filepath.Join("testdata", "scenario_"+g.name+"."+format)
			if *updateScenarioGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s artifact drifted from %s:\ngot:\n%s\nwant:\n%s", g.name, format, path, got, want)
			}
		}
	}
}

// copyDir copies the regular files of src into a fresh directory: the
// state a kill -9 leaves on disk at that instant.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestScenarioGoldenArtifacts: every golden scenario job serves exactly
// the committed artifacts, on a durable daemon with a cache, and again
// after a restart from the data and cache directories as a kill left them
// while the last job was running: the finished jobs replay their
// artifacts and the interrupted one re-executes, resuming from the cache,
// to the same bytes.
func TestScenarioGoldenArtifacts(t *testing.T) {
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dataDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(scenarioGoldens))
	for i, g := range scenarioGoldens {
		job, err := svc.Submit(g.spec)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		ids[i] = job.ID
	}
	last := ids[len(ids)-1]
	waitFor(t, func() bool {
		job := mustJob(t, svc, last)
		return job.Done > 0 || job.State.Terminal()
	})
	killedData, killedCache := copyDir(t, dataDir), copyDir(t, cacheDir)
	for _, id := range ids {
		if final := waitDone(t, svc, id); final.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Error)
		}
	}
	checkScenarioGoldens(t, svc, ids)
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted, err := New(Config{Workers: 1, DataDir: killedData, CacheDir: killedCache})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close(context.Background())
	for _, id := range ids {
		if final := waitDone(t, restarted, id); final.State != StateDone {
			t.Fatalf("restarted job %s ended %s (%s)", id, final.State, final.Error)
		}
	}
	checkScenarioGoldens(t, restarted, ids)
	// Recovery logs a queued transition for a job it re-executes. The kill
	// came after the job's first trial was cached, so the re-execution
	// serves at least that trial from the cache.
	for _, ev := range eventsOf(t, restarted, last)[2:] {
		if ev.Type == EventState && ev.State == StateQueued {
			job := mustJob(t, restarted, last)
			if job.CacheHits < 1 {
				t.Errorf("re-executed job %s served %d cached trials, want ≥ 1", last, job.CacheHits)
			}
			t.Logf("job %s re-executed after the kill with %d of %d trials cached", last, job.CacheHits, job.Total)
		}
	}
}
