package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// twoStateSpec is a buildable two-state candidate machine.
const twoStateSpec = `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"}],"start":"s0","edges":[{"from":"s0","to":"s1","p":1},{"from":"s1","to":"s0","p":1}]}`

// inlineShard is a shard spec over an inline synth grid of the given
// candidates, with every evaluation field explicit.
func inlineShard(specs ...string) JobSpec {
	return JobSpec{Kind: KindShard, SynthSpecs: specs, SynthDs: []int64{4, 8}, SynthAgents: 2, Trials: 3, SynthBudgetFactor: 2}
}

// TestShardSpecValidation pins the shard job's validation rules: exactly
// one grid source (a registered sweep id or inline synth candidates that
// build), indexes unique and in range of the (quick-aware) grid — none
// means every point — and no field bleed from the other kinds.
func TestShardSpecValidation(t *testing.T) {
	size := quickGridSize(t, "s1")
	withPoints := func(s JobSpec, idxs ...int) JobSpec { s.Points = idxs; return s }
	withSweep := func(s JobSpec) JobSpec { s.Sweep = "s1"; return s }
	cases := []struct {
		name string
		spec JobSpec
		want string // "" = valid
	}{
		{"valid", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{0, size - 1}}, ""},
		{"no sweep", JobSpec{Kind: KindShard, Points: []int{0}}, "needs a sweep id"},
		{"unknown sweep", JobSpec{Kind: KindShard, Sweep: "zz", Points: []int{0}}, "unknown sweep"},
		{"no points", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true}, ""},
		{"out of range", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{size}}, "out of range"},
		{"negative", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{-1}}, "out of range"},
		{"duplicate", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{1, 1}}, "listed twice"},
		{"scenario bleed", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{0}, D: 8}, "scenario-only"},
		{"trials on a sweep grid", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{0}, Trials: 3}, "inline-grid fields"},
		{"sweep with points", JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Points: []int{0}}, "shard-only"},
		{"sweep with inline grid", withSweep(inlineShard(twoStateSpec)), "names both"},
		{"scenario with points", JobSpec{Kind: KindScenario, Scenario: "open", D: 8, N: 2, Trials: 1, Ell: 1,
			Algo: "non-uniform", Budget: 100, Points: []int{0}}, "sweep-only"},
		{"inline grid", inlineShard(twoStateSpec), ""},
		{"inline grid with points", withPoints(inlineShard(twoStateSpec), 1, 0), ""},
		{"inline grid out of range", withPoints(inlineShard(twoStateSpec), 2), "out of range"},
		{"inline grid without distances", JobSpec{Kind: KindShard, SynthSpecs: []string{twoStateSpec}, SynthAgents: 2, Trials: 3, SynthBudgetFactor: 2}, "at least one distance"},
		{"repeated candidate", inlineShard(twoStateSpec, twoStateSpec), "repeats value"},
		{"unparsable candidate", inlineShard(twoStateSpec, "{"), "synth candidate 1"},
		{"unbuildable candidate", inlineShard(strings.Replace(twoStateSpec, `"p":1}`, `"p":0.5}`, 1)), "synth candidate 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func quickGridSize(t *testing.T, id string) int {
	t.Helper()
	sp, err := experiment.LookupSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Grid(experiment.Config{Quick: true}).Size()
}

// TestShardJobMatchesFullSweepPoints runs a full sweep job and a shard job
// covering a subset of its grid, and requires the shard's per-point
// results to equal the full run's point for point — the merge-equality
// property distributed sweeps build on.
func TestShardJobMatchesFullSweepPoints(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	sp, err := experiment.LookupSweep("s1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.Config{Seed: 9, Quick: true, Workers: 1}
	_, rep, err := experiment.RunSweep(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	idxs := []int{2, 0}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 9, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("shard job state = %s (%s)", final.State, final.Error)
	}
	if final.Total != len(idxs) || final.Done != len(idxs) {
		t.Errorf("shard progress done=%d total=%d, want %d/%d", final.Done, final.Total, len(idxs), len(idxs))
	}
	data, err := client.Result(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	art, err := ParseShardArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Sweep != "s1" || art.Grid != rep.Grid.Name || art.GridVersion != rep.Grid.Version ||
		art.Seed != 9 || art.Trials != rep.Grid.Trials {
		t.Errorf("shard artifact identity: %+v vs grid %+v", art, rep.Grid)
	}
	if len(art.Points) != len(idxs) {
		t.Fatalf("shard artifact has %d points, want %d", len(art.Points), len(idxs))
	}
	for i, idx := range idxs {
		got := art.Points[i]
		want := rep.Points[idx]
		if got.Index != idx || !reflect.DeepEqual(got.Params, want.Point.Params) {
			t.Errorf("point %d: index/params %d %v, want %d %v", i, got.Index, got.Params, idx, want.Point.Params)
		}
		g, w := *got.Result, *want.Result
		g.ElapsedSec, w.ElapsedSec = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("point %d result differs:\n%+v\nvs\n%+v", idx, g, w)
		}
	}

	// The CSV side is the summary table restricted to the shard's rows.
	csvB, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csvB), "\n"); lines != len(idxs)+1 {
		t.Errorf("shard CSV has %d lines, want header + %d rows", lines, len(idxs))
	}
}

// TestShardJobServesWarmCacheAsMetadata: a shard job on a daemon whose
// cache already holds the points reports every point as a cache hit — the
// worker ships metadata, it does not recompute.
func TestShardJobServesWarmCacheAsMetadata(t *testing.T) {
	cacheDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	warm, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, warm.ID); err != nil {
		t.Fatal(err)
	}

	size := quickGridSize(t, "s1")
	idxs := make([]int, size)
	for i := range idxs {
		idxs[i] = i
	}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 4, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.CacheHits != size {
		t.Errorf("warm shard job cache hits = %d, want %d", final.CacheHits, size)
	}
	data, err := client.Result(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	art, err := ParseShardArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range art.Points {
		if !p.Cached {
			t.Errorf("point %d not served from cache", p.Index)
		}
	}
}

// TestWaitSurfacesFailedJobError is the regression test for the Wait
// contract: a job that ends failed must yield a *JobFailedError carrying
// the terminal event's error message — the kernel's words, not a generic
// status line.
func TestWaitSurfacesFailedJobError(t *testing.T) {
	svc := newFakeService(t, nil, nil)
	const kernelMsg = "kernel exploded at point D=8 n=4: numerical goo"
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return nil, nil, errors.New(kernelMsg)
	}
	client := clientFor(t, svc)
	ctx := context.Background()

	job, err := client.Submit(ctx, scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err == nil {
		t.Fatal("Wait returned nil error for a failed job")
	}
	var jfe *JobFailedError
	if !errors.As(err, &jfe) {
		t.Fatalf("Wait error = %T %v, want *JobFailedError", err, err)
	}
	if jfe.ID != job.ID || jfe.Message != kernelMsg {
		t.Errorf("JobFailedError = %+v, want id %s message %q", jfe, job.ID, kernelMsg)
	}
	if !strings.Contains(err.Error(), kernelMsg) {
		t.Errorf("Wait error %q does not carry the kernel message %q", err, kernelMsg)
	}
	if final.State != StateFailed {
		t.Errorf("final state = %s, want failed", final.State)
	}

	// Done and cancelled jobs keep the nil-error contract.
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("csv\n"), nil
	}
	ok, err := client.Submit(ctx, scenarioSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := client.Wait(ctx, ok.ID); err != nil || final.State != StateDone {
		t.Errorf("Wait on done job = %v state %s, want nil/done", err, final.State)
	}
}

// TestShardJobSharesSweepCache: a shard job populates the daemon cache so
// a subsequent full sweep job only computes the complement.
func TestShardJobSharesSweepCache(t *testing.T) {
	cacheDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	size := quickGridSize(t, "s1")
	if size < 2 {
		t.Skip("grid too small")
	}
	shard, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 6, Points: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, shard.ID); err != nil {
		t.Fatal(err)
	}
	full, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, full.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.CacheHits != 2 {
		t.Errorf("full sweep after 2-point shard: cache hits = %d, want 2", final.CacheHits)
	}
}

// TestRunPointsUsedByShardRespectsContext: cancelling a running shard job
// ends it at a point boundary in the cancelled state.
func TestShardJobCancellation(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	size := quickGridSize(t, "s2")
	idxs := make([]int, size)
	for i := range idxs {
		idxs[i] = i
	}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s2", Quick: true, Seed: 3, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = client.Cancel(ctx, job.ID) // may race completion; both ends are fine
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled && final.State != StateDone {
		t.Errorf("state after cancel = %s (%s)", final.State, final.Error)
	}
}

// clientFor exposes an in-package Service over HTTP for client-level
// tests that need a doctored executor.
func clientFor(t *testing.T, svc *Service) *Client {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// TestNormalizeMapsRetiredSynthKind: an old client's "synth" job is a
// shard over its inline grid, with the synthesis defaults filled in.
func TestNormalizeMapsRetiredSynthKind(t *testing.T) {
	spec := JobSpec{Kind: "synth", SynthSpecs: []string{twoStateSpec}, Seed: 9}
	spec.Normalize()
	want := JobSpec{Kind: KindShard, SynthSpecs: []string{twoStateSpec}, SynthDs: []int64{8, 16},
		SynthAgents: 4, Trials: 32, SynthBudgetFactor: 8, Seed: 9}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("Normalize() = %+v, want %+v", spec, want)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("normalized synth spec does not validate: %v", err)
	}
}

// TestOnlySweepJobsConsultDistributor pins the grid executor's dispatch
// rule. A sweep job offers itself to the installed Distributor exactly
// once and runs locally, byte-identical to the CLI, when it declines; a
// distributor error fails the job with that message. A shard job, with
// or without points, is what a fleet runs, so it never consults it.
func TestOnlySweepJobsConsultDistributor(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int64
	stub := func(fail error) Distributor {
		return func(context.Context, JobSpec, func(sweep.Progress)) (*sweep.Report, bool, error) {
			calls.Add(1)
			return nil, fail != nil, fail
		}
	}
	run := func(spec JobSpec) Job {
		t.Helper()
		calls.Store(0)
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, svc, job.ID)
	}
	_, wantCSV := cliSweepArtifacts(t, "s1", experiment.Config{Seed: 1, Quick: true, Workers: 1})
	sweepSpec := JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1}

	svc.SetDistributor(stub(nil)) // declines: no live fleet
	final := run(sweepSpec)
	if final.State != StateDone || calls.Load() != 1 {
		t.Fatalf("declined sweep job: state %s (%s), %d distributor calls, want done after 1", final.State, final.Error, calls.Load())
	}
	if csvB, err := svc.Artifact(final.ID, "csv"); err != nil || string(csvB) != wantCSV {
		t.Errorf("declined sweep job CSV (err %v):\n%s\nwant the CLI's:\n%s", err, csvB, wantCSV)
	}

	for name, spec := range map[string]JobSpec{
		"shard over every point": {Kind: KindShard, Sweep: "s1", Quick: true, Seed: 1},
		"shard with points":      {Kind: KindShard, Sweep: "s1", Quick: true, Seed: 1, Points: []int{1, 0}},
		"inline-grid shard":      inlineShard(twoStateSpec),
	} {
		final := run(spec)
		if final.State != StateDone || calls.Load() != 0 {
			t.Errorf("%s: state %s (%s), %d distributor calls, want done after 0", name, final.State, final.Error, calls.Load())
		}
		if len(spec.Points) == 0 && spec.Sweep != "" {
			if csvB, err := svc.Artifact(final.ID, "csv"); err != nil || string(csvB) != wantCSV {
				t.Errorf("%s: CSV (err %v) differs from the CLI's:\n%s", name, err, csvB)
			}
		}
	}

	svc.SetDistributor(stub(errors.New("fleet on fire")))
	final = run(sweepSpec)
	if final.State != StateFailed || final.Error != "fleet on fire" || calls.Load() != 1 {
		t.Errorf("failing distributor: state %s (%q), %d calls, want failed with its message after 1", final.State, final.Error, calls.Load())
	}
}
