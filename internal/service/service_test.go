package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFakeService returns a 1-worker service whose executor blocks until
// release is closed (or the job's context is cancelled), so tests can hold
// a job in the running state deterministically.
func newFakeService(t *testing.T, release <-chan struct{}, started chan<- string) *Service {
	t.Helper()
	svc, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		if started != nil {
			started <- rec.snapshot().ID
		}
		select {
		case <-release:
			return []byte("{}\n"), []byte("csv\n"), nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc
}

func scenarioSpec(seed uint64) JobSpec {
	return JobSpec{Kind: KindScenario, Scenario: "open", D: 8, N: 4, Trials: 2, Seed: seed}
}

func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"sweep ok", JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true}, true},
		{"sweep unknown id", JobSpec{Kind: KindSweep, Sweep: "nope"}, false},
		{"sweep with scenario fields", JobSpec{Kind: KindSweep, Sweep: "s1", D: 8}, false},
		{"scenario ok", scenarioSpec(1), true},
		{"scenario bad preset", JobSpec{Kind: KindScenario, Scenario: "nope", D: 8, N: 1, Trials: 1}, false},
		{"scenario bad algo", JobSpec{Kind: KindScenario, Scenario: "open", Algo: "nope", D: 8, N: 1, Trials: 1}, false},
		{"scenario with sweep fields", JobSpec{Kind: KindScenario, Scenario: "open", Sweep: "s1", D: 8, N: 1, Trials: 1}, false},
		{"no kind", JobSpec{}, false},
		{"bad kind", JobSpec{Kind: "bogus"}, false},
		{"negative workers", JobSpec{Kind: KindSweep, Sweep: "s1", Workers: -1}, false},
		{"workers at bound", JobSpec{Kind: KindSweep, Sweep: "s1", Workers: maxWorkers}, true},
		{"sweep workers above bound", JobSpec{Kind: KindSweep, Sweep: "s1", Workers: maxWorkers + 1}, false},
		{"shard workers above bound", JobSpec{Kind: KindShard, Sweep: "s1", Workers: maxWorkers + 1}, false},
		{"scenario workers above bound", JobSpec{Kind: KindScenario, Scenario: "open", D: 8, N: 4, Trials: 1, Workers: maxWorkers + 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Normalize()
			err := spec.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.spec, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tc.spec)
			}
		})
	}
}

func TestNormalizeFillsCLIDefaults(t *testing.T) {
	spec := JobSpec{Kind: KindScenario, Scenario: "open"}
	spec.Normalize()
	want := JobSpec{Kind: KindScenario, Scenario: "open", Algo: "non-uniform",
		D: 64, N: 4, Ell: 1, Trials: 20, Budget: 64 * 64 * 512}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("Normalize() = %+v, want %+v", spec, want)
	}
}

func TestLifecycleQueuedRunningDone(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc := newFakeService(t, release, started)

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued {
		t.Fatalf("submitted job state = %s, want queued", job.State)
	}
	id := <-started
	if id != job.ID {
		t.Fatalf("worker started %s, want %s", id, job.ID)
	}
	close(release)
	final := waitTerminal(t, svc, job.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Errorf("terminal job missing timestamps: %+v", final)
	}
	data, err := svc.Artifact(job.ID, "csv")
	if err != nil || string(data) != "csv\n" {
		t.Errorf("Artifact = %q, %v", data, err)
	}
	if _, err := svc.Artifact(job.ID, "xml"); !errors.Is(err, ErrBadFormat) {
		t.Errorf("Artifact(xml) err = %v, want ErrBadFormat", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	svc := newFakeService(t, release, started)

	// First job occupies the single worker; the second stays queued.
	blocker, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(scenarioSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("cancelled queued job state = %s, want cancelled", got.State)
	}
	if _, err := svc.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second cancel err = %v, want ErrTerminal", err)
	}
	// The worker must skip the cancelled record, not run it.
	close(release)
	final := waitTerminal(t, svc, blocker.ID)
	if final.State != StateDone {
		t.Fatalf("blocker final state = %s, want done", final.State)
	}
	select {
	case id := <-started:
		t.Fatalf("worker ran cancelled job %s", id)
	default:
	}
}

// TestQueueClaimsInSubmissionOrder pins the scheduling policy: one
// worker claims a backlog strictly first in, first out, skipping the
// tombstone of a job cancelled while it waited.
func TestQueueClaimsInSubmissionOrder(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	svc := newFakeService(t, release, started)

	submit := func(seed uint64) string {
		t.Helper()
		job, err := svc.Submit(scenarioSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	j0 := submit(1)
	if first := <-started; first != j0 {
		t.Fatalf("first claim = %s, want %s", first, j0)
	}
	j1, j2, j3, j4 := submit(2), submit(3), submit(4), submit(5)
	if _, err := svc.Cancel(j2); err != nil {
		t.Fatal(err)
	}

	close(release)
	want := []string{j1, j3, j4}
	for i, w := range want {
		if got := <-started; got != w {
			t.Fatalf("claim %d = %s, want %s (full expectation %v)", i+1, got, w, want)
		}
	}
	for _, id := range []string{j0, j1, j3, j4} {
		if final := waitTerminal(t, svc, id); final.State != StateDone {
			t.Errorf("job %s ended %s", id, final.State)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc := newFakeService(t, release, started)
	defer close(release)

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, job.ID)
	if final.State != StateCancelled {
		t.Fatalf("final state = %s, want cancelled", final.State)
	}
	if _, err := svc.Artifact(job.ID, "json"); !errors.Is(err, ErrNotDone) {
		t.Errorf("Artifact of cancelled job err = %v, want ErrNotDone", err)
	}
}

func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		started <- rec.snapshot().ID
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("{}"), []byte(""), nil
	}
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	if _, err := svc.Submit(scenarioSpec(1)); err != nil { // runs
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Submit(scenarioSpec(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	rejected, err := svc.Submit(scenarioSpec(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %+v, %v; want ErrQueueFull", rejected, err)
	}
	// The rejected submission must leave no trace in the job table.
	for _, j := range svc.Jobs() {
		if j.Spec.Seed == 3 {
			t.Errorf("rejected job %s still listed", j.ID)
		}
	}
}

func TestCloseDrainsRunningAndCancelsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc := newFakeService(t, release, started)

	running, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(scenarioSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- svc.Close(ctx)
	}()

	// Draining: no new submissions.
	waitFor(t, func() bool { return svc.Stats().Draining })
	if _, err := svc.Submit(scenarioSpec(3)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit while draining err = %v, want ErrClosed", err)
	}

	close(release) // let the running job finish
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil (drained)", err)
	}
	if st := mustJob(t, svc, running.ID).State; st != StateDone {
		t.Errorf("running job drained to %s, want done", st)
	}
	if st := mustJob(t, svc, queued.ID).State; st != StateCancelled {
		t.Errorf("queued job after shutdown = %s, want cancelled", st)
	}
}

func TestCloseTimeoutCancelsRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc := newFakeService(t, release, started)
	defer close(release)

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want DeadlineExceeded", err)
	}
	if st := mustJob(t, svc, job.ID).State; st != StateCancelled {
		t.Errorf("job after forced shutdown = %s, want cancelled", st)
	}
	// Close is idempotent.
	if err := svc.Close(context.Background()); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestFailedJobCarriesError(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return nil, nil, errors.New("kernel exploded")
	}
	defer svc.Close(context.Background())

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, job.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "kernel exploded") {
		t.Fatalf("final = %s (%q), want failed with the kernel error", final.State, final.Error)
	}
}

func TestEventLogReplaysIdentically(t *testing.T) {
	release := make(chan struct{})
	close(release)
	svc := newFakeService(t, release, nil)

	job, err := svc.Submit(scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, job.ID)
	rec, ok := svc.store.get(job.ID)
	if !ok {
		t.Fatal("record vanished")
	}
	evs, terminal, _ := rec.eventsFrom(0)
	if !terminal {
		t.Fatal("job not terminal")
	}
	var states []JobState
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Job != job.ID {
			t.Errorf("event %d has job %q", i, ev.Job)
		}
		if ev.Type == EventState {
			states = append(states, ev.State)
		}
	}
	want := []JobState{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("state events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state events = %v, want %v", states, want)
		}
	}
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t testing.TB, svc *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

func mustJob(t *testing.T, svc *Service, id string) Job {
	t.Helper()
	job, err := svc.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestCancelQueuedJobFreesCapacity pins the queue-accounting rule: a job
// cancelled while queued releases its capacity slot immediately, so the
// queue accepts a replacement even though the tombstone has not been
// drained by a worker yet.
func TestCancelQueuedJobFreesCapacity(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	svc, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		started <- rec.snapshot().ID
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("{}"), []byte(""), nil
	}
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	}()

	if _, err := svc.Submit(scenarioSpec(1)); err != nil { // occupies the worker
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(scenarioSpec(2)) // fills the single slot
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(scenarioSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into full queue err = %v, want ErrQueueFull", err)
	}
	if _, err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth after cancelling the only queued job = %d, want 0", st.QueueDepth)
	}
	if _, err := svc.Submit(scenarioSpec(4)); err != nil {
		t.Errorf("submit after cancel err = %v; the cancelled job's slot was not freed", err)
	}
}

// TestCancelRunningScenarioJobAbandons: a running scenario job is
// cancelled at its next trial boundary, so cancel reaches the terminal
// state promptly instead of waiting for every trial; the compute it
// leaves behind is checked by TestCancelledScenarioJobLeavesNoCompute.
func TestCancelRunningScenarioJobAbandons(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	// A random walk at D=128 mostly burns the full 512·D² budget per
	// trial; cancel waits for the trial in flight, not for all three.
	job, err := svc.Submit(JobSpec{Kind: KindScenario, Scenario: "open",
		Algo: "random-walk", D: 128, N: 1, Trials: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mustJob(t, svc, job.ID).State == StateRunning })
	start := time.Now()
	if _, err := svc.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, job.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s (%s), want cancelled", final.State, final.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %s; the engine call was not abandoned", elapsed)
	}
}

// TestScenarioCSVQuotesCommaFields: canonical scenario specs can contain
// commas ("torus:crash=0.1,l=24"); the CSV artifact must quote them per
// RFC 4180 so the row still has exactly as many fields as the header.
func TestScenarioCSVQuotesCommaFields(t *testing.T) {
	art := scenarioArtifact{
		SchemaVersion: 1,
		Scenario:      "torus:crash=0.1,l=24",
		World:         "torus-24",
		FoundFrac:     0.5,
	}
	out := scenarioCSV(art)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], `"torus:crash=0.1,l=24"`) {
		t.Errorf("comma-bearing spec not quoted: %s", lines[1])
	}
	header := strings.Split(lines[0], ",")
	row := splitCSVRow(lines[1])
	if len(row) != len(header) {
		t.Errorf("row has %d fields, header %d:\n%s", len(row), len(header), out)
	}
}

// splitCSVRow splits one CSV line honoring RFC 4180 quoting.
func splitCSVRow(line string) []string {
	var fields []string
	var cur strings.Builder
	inQuotes := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuotes = !inQuotes
			cur.WriteByte(c)
		case c == ',' && !inQuotes:
			fields = append(fields, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	return append(fields, cur.String())
}

// TestStatsCounters exercises the aggregate counters with the real
// executor on tiny scenario jobs.
func TestStatsCounters(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			job, err := svc.Submit(scenarioSpec(seed))
			if err != nil {
				t.Error(err)
				return
			}
			waitTerminal(t, svc, job.ID)
		}(uint64(i + 1))
	}
	wg.Wait()
	st := svc.Stats()
	if st.Done != 3 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats after 3 jobs = %+v", st)
	}
	if st.Workers != 2 || st.Draining {
		t.Errorf("stats config fields wrong: %+v", st)
	}
}
