package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// newTestServer starts a real service behind an httptest server and
// returns a client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
		srv.Close()
	})
	return svc, NewClient(srv.URL)
}

// cliSweepArtifacts runs a sweep exactly the way `antsim -sweep` does and
// returns the summary artifacts the CLI would write with -out.
func cliSweepArtifacts(t *testing.T, id string, cfg experiment.Config) (jsonB []byte, csvB string) {
	t.Helper()
	sp, err := experiment.LookupSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := experiment.RunSweep(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Summary()
	data, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, sum.CSV()
}

// TestJobResultByteIdenticalToCLI is the end-to-end acceptance test: a
// sweep job submitted over HTTP must yield a CSV artifact byte-identical
// to the same experiment run through the CLI path, and the JSON artifact
// must agree row for row (JSON additionally carries timing and cache
// provenance, which are run-dependent metadata by design).
func TestJobResultByteIdenticalToCLI(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	job, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	gotCSV, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := cliSweepArtifacts(t, "s1", experiment.Config{Seed: 1, Quick: true, Workers: 1})
	if string(gotCSV) != wantCSV {
		t.Errorf("daemon CSV differs from CLI CSV:\ndaemon:\n%s\ncli:\n%s", gotCSV, wantCSV)
	}

	gotJSON, err := client.Result(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	assertSummaryRowsEqual(t, gotJSON, wantJSON)

	if final.Total == 0 || final.Done != final.Total {
		t.Errorf("progress counters: done=%d total=%d", final.Done, final.Total)
	}
}

// assertSummaryRowsEqual compares two sweep summary JSON artifacts on
// their deterministic content (axes and rows, cache provenance aside).
func assertSummaryRowsEqual(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"elapsed_sec", "points_per_sec", "computed", "cache_hits"} {
		delete(g, key)
		delete(w, key)
	}
	stripCached := func(rows any) {
		list, _ := rows.([]any)
		for _, r := range list {
			if m, ok := r.(map[string]any); ok {
				delete(m, "cached")
			}
		}
	}
	stripCached(g["rows"])
	stripCached(w["rows"])
	gs, _ := json.Marshal(g)
	ws, _ := json.Marshal(w)
	if !bytes.Equal(gs, ws) {
		t.Errorf("summary JSON rows differ:\ndaemon: %s\ncli:    %s", gs, ws)
	}
}

// TestConcurrentJobsDeterministic submits ≥4 jobs concurrently (run under
// -race in CI) and checks that identical specs yield byte-identical
// artifacts regardless of queueing and worker interleaving.
func TestConcurrentJobsDeterministic(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 3, QueueDepth: 16})
	ctx := context.Background()

	specs := []JobSpec{
		{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1},
		{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1}, // duplicate of the first
		{Kind: KindSweep, Sweep: "e5", Quick: true, Seed: 7},
		scenarioSpec(3),
		scenarioSpec(3), // duplicate of the fourth
		scenarioSpec(9),
	}
	jobs := make([]Job, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			job, err := client.Submit(ctx, spec)
			if err != nil {
				t.Error(err)
				return
			}
			if jobs[i], err = client.Wait(ctx, job.ID); err != nil {
				t.Error(err)
			}
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, job := range jobs {
		if job.State != StateDone {
			t.Fatalf("job %d state = %s (%s)", i, job.State, job.Error)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {3, 4}} {
		a, err := client.Result(ctx, jobs[pair[0]].ID, "csv")
		if err != nil {
			t.Fatal(err)
		}
		b, err := client.Result(ctx, jobs[pair[1]].ID, "csv")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("identical specs %v yielded different CSV artifacts:\n%s\nvs\n%s", pair, a, b)
		}
	}
}

// TestSweepCacheSharedWithCLI proves daemon jobs and CLI runs share one
// content-addressed cache: after the daemon computes a sweep, the CLI
// path resumes entirely from cache with identical artifacts — and vice
// versa a second daemon job is served from cache.
func TestSweepCacheSharedWithCLI(t *testing.T) {
	cacheDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	job, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	daemonCSV, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}

	// CLI-equivalent resume run on the same cache: everything cached.
	sp, err := experiment.LookupSweep("s1")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := experiment.RunSweep(sp, experiment.Config{
		Seed: 1, Quick: true, Workers: 1, CacheDir: cacheDir, Resume: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 0 {
		t.Errorf("CLI resume after daemon run computed %d points, want 0", rep.Computed)
	}
	if got := rep.Summary().CSV(); got != string(daemonCSV) {
		t.Errorf("CLI resume CSV differs from daemon CSV:\n%s\nvs\n%s", got, daemonCSV)
	}

	// A second daemon job is served from the shared cache too.
	job2, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := client.Wait(ctx, job2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.CacheHits != final2.Total || final2.Total == 0 {
		t.Errorf("second daemon job cache hits = %d of %d, want all", final2.CacheHits, final2.Total)
	}
}

// TestCancelMidSweepKeepsCacheConsistent cancels a running sweep job and
// then proves the shared cache survived: a resume run completes the grid
// and its artifact is byte-identical to a cache-less run.
func TestCancelMidSweepKeepsCacheConsistent(t *testing.T) {
	cacheDir := t.TempDir()
	svc, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	job, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "e1", Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the job starts running; depending on timing the
	// job may still complete — both outcomes must leave the cache usable.
	waitFor(t, func() bool { return mustJob(t, svc, job.ID).State != StateQueued })
	_, _ = client.Cancel(ctx, job.ID)
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled && final.State != StateDone {
		t.Fatalf("state after cancel = %s (%s)", final.State, final.Error)
	}

	cfg := experiment.Config{Seed: 5, Quick: true, Workers: 1}
	_, wantCSV := cliSweepArtifacts(t, "e1", cfg)
	resumeCfg := cfg
	resumeCfg.CacheDir, resumeCfg.Resume = cacheDir, true
	sp, err := experiment.LookupSweep("e1")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := experiment.RunSweep(sp, resumeCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Summary().CSV(); got != wantCSV {
		t.Errorf("resume-after-cancel CSV differs from fresh CSV:\n%s\nvs\n%s", got, wantCSV)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	assertStatus := func(err error, want int) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want *APIError", err)
		}
		if apiErr.Status != want {
			t.Errorf("status = %d (%s), want %d", apiErr.Status, apiErr.Message, want)
		}
	}

	_, err := client.Job(ctx, "j999999")
	assertStatus(err, http.StatusNotFound)
	_, err = client.Cancel(ctx, "j999999")
	assertStatus(err, http.StatusNotFound)
	_, err = client.Events(ctx, "j999999")
	assertStatus(err, http.StatusNotFound)
	_, err = client.Result(ctx, "j999999", "csv")
	assertStatus(err, http.StatusNotFound)

	_, err = client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "bogus"})
	assertStatus(err, http.StatusBadRequest) // validation failure

	job, err := client.Submit(ctx, scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	_, err = client.Cancel(ctx, job.ID) // already terminal
	assertStatus(err, http.StatusConflict)
	_, err = client.Result(ctx, job.ID, "xml")
	assertStatus(err, http.StatusBadRequest)
}

func TestSubmitRejectsMalformedAndUnknownFields(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{not json`,
		`{"kind":"sweep","sweep":"s1","bogus_field":1}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsOversizedScenario: a scenario job asking for more than
// sim.MaxAgents agents, or for more than maxWorkers engine workers, is a
// 400, not a job. Validation refuses it before anything sized by n is
// allocated, so nothing is queued, logged or replayed by a restarted
// daemon, and the bounds themselves still validate.
func TestSubmitRejectsOversizedScenario(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Should a hostile spec get through, it fails here instead of
	// starting millions of engine goroutines.
	svc.execute = func(context.Context, *record) ([]byte, []byte, error) {
		t.Error("a rejected spec reached the executor")
		return nil, nil, errors.New("rejected spec executed")
	}
	h := svc.Handler()
	for _, workers := range []int64{1 << 40, sim.MaxAgents, maxWorkers + 1} {
		body := fmt.Sprintf(`{"kind":"scenario","scenario":"open","n":%d,"workers":%d}`, sim.MaxAgents, workers)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if want := fmt.Sprintf("[0, %d]", maxWorkers); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("workers=%d: status %d, body %s; want 400 naming the bound %s", workers, rec.Code, rec.Body, want)
		}
	}
	for _, n := range []int64{1 << 40, sim.MaxAgents + 1} {
		body := fmt.Sprintf(`{"kind":"scenario","scenario":"open","n":%d}`, n)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too many agents") {
			t.Errorf("n=%d: status %d, body %s; want 400 naming the agent bound", n, rec.Code, rec.Body)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("n=%d: the rejected POST allocated %d bytes", n, b)
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected submissions left %d jobs", len(jobs))
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	restarted, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close(context.Background())
	if jobs := restarted.Jobs(); len(jobs) != 0 {
		t.Errorf("a restart replayed %d jobs from rejected submissions", len(jobs))
	}

	spec := JobSpec{Kind: KindScenario, Scenario: "open", N: sim.MaxAgents}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Errorf("n = MaxAgents: %v", err)
	}
	spec.N++
	if err := spec.Validate(); !errors.Is(err, sim.ErrTooManyAgents) {
		t.Errorf("n = MaxAgents+1: %v, want ErrTooManyAgents", err)
	}
	if _, err := restarted.Submit(spec); !errors.Is(err, ErrInvalidSpec) || !errors.Is(err, sim.ErrTooManyAgents) {
		t.Errorf("Submit(n = MaxAgents+1) = %v, want ErrInvalidSpec wrapping ErrTooManyAgents", err)
	}
	spec.N, spec.Workers = sim.MaxAgents, maxWorkers
	if err := spec.Validate(); err != nil {
		t.Errorf("workers = maxWorkers: %v", err)
	}
}

// TestSubmitBoundsScenarioTrials: a scenario job of maxTrials trials is
// accepted, and one more is a 400 naming ErrTooManyTrials and the bound,
// refused before the per-trial grid is expanded.
func TestSubmitBoundsScenarioTrials(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	// The accepted job is about its admission, not its 65536 trials.
	svc.execute = func(context.Context, *record) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("csv\n"), nil
	}
	h := svc.Handler()
	for _, tc := range []struct {
		trials int
		status int
		want   string
	}{
		{maxTrials, http.StatusAccepted, `"state": "queued"`},
		{maxTrials + 1, http.StatusBadRequest, "service: too many trials: 65537, at most 65536"},
	} {
		body := fmt.Sprintf(`{"kind":"scenario","scenario":"open","d":8,"trials":%d}`, tc.trials)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("trials=%d: status %d, body %s; want %d containing %q", tc.trials, rec.Code, rec.Body, tc.status, tc.want)
		}
		if b := after.TotalAlloc - before.TotalAlloc; tc.status == http.StatusBadRequest && b > 1<<20 {
			t.Errorf("trials=%d: the rejected POST allocated %d bytes", tc.trials, b)
		}
	}
	spec := JobSpec{Kind: KindScenario, Scenario: "open", Trials: maxTrials + 1}
	spec.Normalize()
	if err := spec.Validate(); !errors.Is(err, ErrTooManyTrials) {
		t.Errorf("trials = maxTrials+1: %v, want ErrTooManyTrials", err)
	}
}

// TestSubmitRefusesRoundsOnlyScenarios: a scenario job runs on the
// asynchronous engine, so every registered preset that needs the rounds
// engine (RoundsOnly), bare or with parameters, is a 400 with a named
// error pointing to `antsim -scenario`, and every other preset validates.
func TestSubmitRefusesRoundsOnlyScenarios(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	svc.execute = func(context.Context, *record) ([]byte, []byte, error) {
		t.Error("a rounds-only spec reached the executor")
		return nil, nil, errors.New("rejected spec executed")
	}
	refused := []string{"adaptive-crash:b=2", "mixed:m=2", "adaptive-crash:crash=0.01,every=4"}
	for _, name := range scenario.Names() {
		scn, err := scenario.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if scn.RoundsOnly() {
			refused = append(refused, name)
			continue
		}
		spec := JobSpec{Kind: KindScenario, Scenario: name, D: 8}
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Errorf("asynchronous preset %q: %v", name, err)
		}
	}
	if len(refused) < 5 {
		t.Fatalf("the registry has %d rounds-only presets; the table checks nothing", len(refused)-3)
	}
	h := svc.Handler()
	for _, name := range refused {
		scn, err := scenario.Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		spec := JobSpec{Kind: KindScenario, Scenario: name, D: 8}
		spec.Normalize()
		want := fmt.Sprintf("service: rounds-only scenario preset; run it with antsim -scenario: %q", scn.Spec)
		if err := spec.Validate(); !errors.Is(err, ErrRoundsOnlyScenario) || err.Error() != want {
			t.Errorf("%s: Validate = %v, want %s", name, err, want)
		}
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"kind":"scenario","scenario":%q,"d":8}`, name)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "antsim -scenario") {
			t.Errorf("%s: status %d, body %s; want 400 pointing to antsim -scenario", name, rec.Code, rec.Body)
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submissions left %d jobs", len(jobs))
	}
}

// TestEventStreamReplayAndFollow checks both stream properties: a late
// subscriber replays the full history, and the stream ends exactly at the
// terminal state event.
func TestEventStreamReplayAndFollow(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	job, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Early subscriber: follows live.
	live := collectEvents(t, client, job.ID)
	// Late subscriber after completion: replays the identical log.
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	replayed := collectEvents(t, client, job.ID)

	if len(live) != len(replayed) {
		t.Fatalf("live stream has %d events, replay %d", len(live), len(replayed))
	}
	for i := range live {
		if live[i] != replayed[i] {
			t.Errorf("event %d differs: live %+v, replay %+v", i, live[i], replayed[i])
		}
	}
	if live[0].Type != EventState || live[0].State != StateQueued {
		t.Errorf("first event = %+v, want queued state", live[0])
	}
	last := live[len(live)-1]
	if last.Type != EventState || last.State != StateDone {
		t.Errorf("last event = %+v, want done state", last)
	}
	points := 0
	for _, ev := range live {
		if ev.Type == EventPoint {
			points++
			if ev.Total == 0 || ev.Done == 0 || ev.Point == "" {
				t.Errorf("malformed point event: %+v", ev)
			}
		}
	}
	if points == 0 {
		t.Error("no point progress events on a sweep job")
	}
}

func collectEvents(t *testing.T, client *Client, id string) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es, err := client.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var evs []Event
	for {
		ev, err := es.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// TestEventStreamSSE checks the SSE framing: data: lines with the same
// event JSON, ending at the terminal event.
func TestEventStreamSSE(t *testing.T) {
	svc, client := newTestServer(t, Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()

	job, err := client.Submit(ctx, scenarioSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	var states []JobState
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line without data prefix: %q", line)
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("SSE event does not parse: %v", err)
		}
		if ev.Type == EventState {
			states = append(states, ev.State)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]JobState{StateQueued, StateRunning, StateDone})
	if fmt.Sprint(states) != want {
		t.Errorf("SSE state sequence = %v, want %s", states, want)
	}
}

func TestHealthzAndStatsEndpoints(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	job, err := client.Submit(ctx, scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Workers != 1 || st.Draining {
		t.Errorf("stats = %+v", st)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("jobs list = %+v", jobs)
	}
}

// TestScenarioArtifactDeterministic: the scenario artifact is bytewise
// reproducible and matches a direct library computation of the same spec.
func TestScenarioArtifactDeterministic(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	spec := JobSpec{Kind: KindScenario, Scenario: "torus:l=24", Algo: "random-walk",
		D: 8, N: 4, Trials: 3, Seed: 11}
	var artifacts [][]byte
	for i := 0; i < 2; i++ {
		job, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if final, err := client.Wait(ctx, job.ID); err != nil || final.State != StateDone {
			t.Fatalf("wait: %v, state %s (%s)", err, final.State, final.Error)
		}
		data, err := client.Result(ctx, job.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, data)
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Errorf("scenario artifacts differ across runs:\n%s\nvs\n%s", artifacts[0], artifacts[1])
	}
	var art scenarioArtifact
	if err := json.Unmarshal(artifacts[0], &art); err != nil {
		t.Fatal(err)
	}
	if art.SchemaVersion != scenarioArtifactSchemaVersion || art.World != "torus-24" {
		t.Errorf("artifact fields: %+v", art)
	}
	if art.FoundFrac < 0 || art.FoundFrac > 1 {
		t.Errorf("found_frac out of range: %v", art.FoundFrac)
	}
}

// TestRouteTableServed hits every RouteTable entry and checks the mux
// actually serves it (no 404/405), keeping the documented table honest.
func TestRouteTableServed(t *testing.T) {
	svc, client := newTestServer(t, Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()

	job, err := client.Submit(ctx, scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	for _, rt := range RouteTable() {
		path := strings.ReplaceAll(rt.Pattern, "{id}", job.ID)
		body := io.Reader(nil)
		if rt.Method == http.MethodPost {
			body = strings.NewReader(`{"kind":"scenario","scenario":"open","d":8,"n":2,"trials":1,"seed":2}`)
		}
		req, err := http.NewRequest(rt.Method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s → %d: documented route not served", rt.Method, rt.Pattern, resp.StatusCode)
		}
	}
}
