package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sweep"
)

// testWorker is one in-process antsimd: a real Service behind a real HTTP
// server, exactly what a remote worker looks like to the coordinator.
type testWorker struct {
	svc *service.Service
	srv *httptest.Server
}

// startWorker boots an in-process worker daemon. Middleware, when
// non-nil, wraps the service handler (chaos and straggler injection).
func startWorker(t *testing.T, cfg service.Config, middleware func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(svc.Handler())
	if middleware != nil {
		h = middleware(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
		srv.Close()
	})
	return &testWorker{svc: svc, srv: srv}
}

// startFleet boots n in-process workers, each with its own cache dir.
func startFleet(t *testing.T, n int) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, n)
	for i := range ws {
		ws[i] = startWorker(t, service.Config{CacheDir: t.TempDir()}, nil)
	}
	return ws
}

func fleetURLs(ws []*testWorker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.srv.URL
	}
	return urls
}

// quickSweep is the shard spec of a registered sweep's quick grid, the
// way Dispatch takes it.
func quickSweep(id string, seed uint64) service.JobSpec {
	return service.JobSpec{Kind: service.KindShard, Sweep: id, Quick: true, Seed: seed}
}

// localOracle runs the sweep single-process, exactly like `antsim -sweep`,
// and returns its summary.
func localOracle(t *testing.T, id string, seed uint64) *sweep.Summary {
	t.Helper()
	sp, err := experiment.LookupSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := experiment.RunSweep(sp, experiment.Config{Seed: seed, Quick: true, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Summary()
}

// normalizeSummary zeroes the fields documented as run metadata (timing
// and cache provenance) so that what remains must be byte-identical
// between a distributed run and the local oracle.
func normalizeSummary(s *sweep.Summary) {
	s.ElapsedSec = 0
	s.PointsPerSec = 0
	s.Computed = 0
	s.CacheHits = 0
	for i := range s.Rows {
		s.Rows[i].Cached = false
	}
}

// assertSummariesByteIdentical requires the distributed summary's CSV to
// equal the oracle's byte for byte as-is, and the JSON after stripping
// exactly the documented run-metadata fields.
func assertSummariesByteIdentical(t *testing.T, got, want *sweep.Summary) {
	t.Helper()
	if got.CSV() != want.CSV() {
		t.Errorf("distributed CSV differs from local CSV:\n%s\nvs\n%s", got.CSV(), want.CSV())
	}
	normalizeSummary(got)
	normalizeSummary(want)
	gj, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Errorf("distributed JSON differs from local JSON:\n%s\nvs\n%s", gj, wj)
	}
}

// progressAudit records progress events and enforces the exactly-once
// merge contract as it streams by.
type progressAudit struct {
	mu     sync.Mutex
	seen   map[int]int // grid point index → merge count
	events int
	onEach func(Progress) // optional chaos hook, called under mu
}

func newProgressAudit() *progressAudit {
	return &progressAudit{seen: map[int]int{}}
}

func (a *progressAudit) cb(p Progress) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen[p.Point.Index]++
	a.events++
	if a.onEach != nil {
		a.onEach(p)
	}
}

func (a *progressAudit) assertExactlyOnce(t *testing.T, total int) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.events != total {
		t.Errorf("progress events = %d, want %d", a.events, total)
	}
	for idx, n := range a.seen {
		if n != 1 {
			t.Errorf("grid point %d merged %d times, want exactly once", idx, n)
		}
	}
	if len(a.seen) != total {
		t.Errorf("merged %d distinct points, want %d", len(a.seen), total)
	}
}

// TestDistributedSweepByteIdenticalToLocal is the e2e conformance test of
// the tentpole: the S2 sweep dispatched across 3 in-process antsimd
// workers must merge into artifacts byte-identical to the single-process
// `antsim -sweep s2` output.
func TestDistributedSweepByteIdenticalToLocal(t *testing.T) {
	ws := startFleet(t, 3)
	c, err := New(Config{Workers: fleetURLs(ws), ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	audit := newProgressAudit()
	d, err := c.Dispatch(context.Background(), quickSweep("s2", 1), audit.cb)
	if err != nil {
		t.Fatal(err)
	}
	want := localOracle(t, "s2", 1)
	total := len(want.Rows)
	audit.assertExactlyOnce(t, total)
	assertSummariesByteIdentical(t, d.Report.Summary(), want)

	if d.Stats.Workers != 3 || d.Stats.Shipped != total || d.Stats.LocalHits != 0 {
		t.Errorf("stats = %+v, want 3 workers, %d shipped, 0 local hits", d.Stats, total)
	}
	if d.Stats.Shards != total {
		t.Errorf("shard size 1 built %d shards, want %d", d.Stats.Shards, total)
	}
	if len(d.Stats.Failed) != 0 || d.Stats.Reassigned != 0 {
		t.Errorf("healthy fleet reported failures: %+v", d.Stats)
	}
	// Every worker did some work: the queue hands shards round-robin-ish,
	// and with 10 shards across 3 workers nobody can starve.
	for _, w := range ws {
		if w.svc.Stats().PointsDone == 0 {
			t.Errorf("worker %s processed no points", w.srv.URL)
		}
	}
}

// TestDistributedDynamicSweepByteIdenticalToLocal runs the S3 grid —
// dynamic worlds, the adaptive adversary and mixed colonies on the rounds
// engine — across 3 workers and requires the merged artifacts to be
// byte-identical to the single-process run. Adversary draws come from a
// dedicated substream and dynamics sync on the coordinating goroutine, so
// distribution must not perturb a single byte.
func TestDistributedDynamicSweepByteIdenticalToLocal(t *testing.T) {
	ws := startFleet(t, 3)
	c, err := New(Config{Workers: fleetURLs(ws), ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	audit := newProgressAudit()
	d, err := c.Dispatch(context.Background(), quickSweep("s3", 11), audit.cb)
	if err != nil {
		t.Fatal(err)
	}
	want := localOracle(t, "s3", 11)
	audit.assertExactlyOnce(t, len(want.Rows))
	assertSummariesByteIdentical(t, d.Report.Summary(), want)
	if len(d.Stats.Failed) != 0 || d.Stats.Reassigned != 0 {
		t.Errorf("healthy fleet reported failures: %+v", d.Stats)
	}
}

// TestChaosWorkerKilledMidSweep kills one worker after its first merged
// shard: the coordinator must declare exactly that worker dead, reassign
// its in-flight shard exactly once, merge every grid point exactly once,
// and still produce artifacts byte-identical to the local oracle. CI runs
// this under -race.
func TestChaosWorkerKilledMidSweep(t *testing.T) {
	ws := startFleet(t, 3)
	urlToSrv := map[string]*httptest.Server{}
	for _, w := range ws {
		urlToSrv[w.srv.URL] = w.srv
	}
	c, err := New(Config{Workers: fleetURLs(ws), ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first worker that merges a shard, synchronously inside its
	// own commit path: its next claim then fails against a closed server,
	// which is exactly one in-flight shard to reassign.
	var victim string
	audit := newProgressAudit()
	audit.onEach = func(p Progress) {
		if victim == "" && p.Worker != "" {
			victim = p.Worker
			srv := urlToSrv[victim]
			srv.CloseClientConnections()
			srv.Close()
		}
	}
	d, err := c.Dispatch(context.Background(), quickSweep("s2", 1), audit.cb)
	if err != nil {
		t.Fatal(err)
	}
	want := localOracle(t, "s2", 1)
	audit.assertExactlyOnce(t, len(want.Rows))
	assertSummariesByteIdentical(t, d.Report.Summary(), want)

	if len(d.Stats.Failed) != 1 || d.Stats.Failed[0] != victim {
		t.Errorf("failed workers = %v, want exactly [%s]", d.Stats.Failed, victim)
	}
	if d.Stats.Reassigned != 1 {
		t.Errorf("reassigned = %d, want exactly 1 (the killed worker's in-flight shard)", d.Stats.Reassigned)
	}
}

// TestCacheFederationWarmCoordinator: after one distributed run, a second
// run over the same coordinator cache must ship nothing and execute zero
// kernel calls anywhere — every point is a local cache hit.
func TestCacheFederationWarmCoordinator(t *testing.T) {
	ws := startFleet(t, 2)
	cacheDir := t.TempDir()
	c, err := New(Config{Workers: fleetURLs(ws), CacheDir: cacheDir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	req := quickSweep("s1", 2)
	first, err := c.Dispatch(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(first.Report.Points)
	if first.Stats.Shipped != total {
		t.Fatalf("first run shipped %d of %d", first.Stats.Shipped, total)
	}

	// Freeze the workers' kernel-call odometers (points done minus cache
	// hits is exactly the number of kernel invocations a daemon made).
	kernelCalls := func() int64 {
		var n int64
		for _, w := range ws {
			st := w.svc.Stats()
			n += st.PointsDone - st.CacheHits
		}
		return n
	}
	before := kernelCalls()

	second, err := c.Dispatch(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Shipped != 0 || second.Stats.LocalHits != total {
		t.Errorf("second run shipped %d, local hits %d; want 0 shipped, %d hits", second.Stats.Shipped, second.Stats.LocalHits, total)
	}
	if got := kernelCalls(); got != before {
		t.Errorf("second run executed %d kernel calls on the fleet, want 0", got-before)
	}
	assertSummariesByteIdentical(t, second.Report.Summary(), localOracle(t, "s1", 2))
}

// TestCacheFederationColdCoordinatorWarmWorkers: a coordinator with an
// empty cache driving workers that already hold every point must ship
// only metadata — the workers serve their caches and recompute nothing.
func TestCacheFederationColdCoordinatorWarmWorkers(t *testing.T) {
	sharedWorkerCache := t.TempDir()
	ws := []*testWorker{
		startWorker(t, service.Config{CacheDir: sharedWorkerCache}, nil),
		startWorker(t, service.Config{CacheDir: sharedWorkerCache}, nil),
	}
	// Warm the workers' (shared) cache with a first distributed run from a
	// throwaway coordinator.
	warmup, err := New(Config{Workers: fleetURLs(ws)})
	if err != nil {
		t.Fatal(err)
	}
	req := quickSweep("s1", 3)
	if _, err := warmup.Dispatch(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	kernelCalls := func() int64 {
		var n int64
		for _, w := range ws {
			st := w.svc.Stats()
			n += st.PointsDone - st.CacheHits
		}
		return n
	}
	before := kernelCalls()

	// Cold coordinator, warm workers.
	cold, err := New(Config{Workers: fleetURLs(ws), CacheDir: t.TempDir(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cold.Dispatch(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(d.Report.Points)
	if d.Stats.Shipped != total || d.Stats.LocalHits != 0 {
		t.Errorf("cold coordinator shipped %d, local hits %d; want all %d shipped", d.Stats.Shipped, d.Stats.LocalHits, total)
	}
	if d.Stats.RemoteHits != total {
		t.Errorf("remote cache hits = %d, want %d (workers are warm)", d.Stats.RemoteHits, total)
	}
	if got := kernelCalls(); got != before {
		t.Errorf("warm workers executed %d kernel calls, want 0 (metadata only)", got-before)
	}
	assertSummariesByteIdentical(t, d.Report.Summary(), localOracle(t, "s1", 3))

	// The shipped metadata warmed the coordinator: a re-run ships nothing.
	again, err := cold.Dispatch(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Shipped != 0 {
		t.Errorf("re-run after write-back shipped %d, want 0", again.Stats.Shipped)
	}
}

// TestWorkStealingReassignsStraggler wedges one worker's job submissions
// behind a long delay: an idle peer must steal the straggler's shard, the
// duplicate must merge exactly once, and the artifact must stay exact.
func TestWorkStealingReassignsStraggler(t *testing.T) {
	release := make(chan struct{})
	straggler := startWorker(t, service.Config{}, func(next http.Handler) http.Handler {
		var once sync.Once
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				wedge := false
				once.Do(func() { wedge = true })
				if wedge {
					select { // wedge the first submission until the test ends
					case <-release:
					case <-r.Context().Done():
					}
					http.Error(w, `{"error":"wedged"}`, http.StatusServiceUnavailable)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	fast := startWorker(t, service.Config{}, nil)
	// Cleanups run LIFO: release the wedged handler before the servers'
	// Close waits on it.
	t.Cleanup(func() { close(release) })

	c, err := New(Config{Workers: []string{straggler.srv.URL, fast.srv.URL}, ShardSize: 2,
		StealAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	audit := newProgressAudit()
	d, err := c.Dispatch(context.Background(), quickSweep("s1", 4), audit.cb)
	if err != nil {
		t.Fatal(err)
	}
	want := localOracle(t, "s1", 4)
	audit.assertExactlyOnce(t, len(want.Rows))
	assertSummariesByteIdentical(t, d.Report.Summary(), want)
	if d.Stats.Stolen == 0 {
		t.Errorf("stats = %+v, want at least one stolen shard (the straggler's)", d.Stats)
	}
}

// TestHeartbeatFeedsHealthMonitor holds a shard in flight long enough
// for several heartbeat probes to fire and checks that each successful
// probe lands a "fleet_rtt:<worker>" sample in the configured health
// monitor — the series /v1/monitor charts for the dispatch fleet.
func TestHeartbeatFeedsHealthMonitor(t *testing.T) {
	w := startWorker(t, service.Config{}, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				time.Sleep(120 * time.Millisecond) // keep the shard in flight across probes
			}
			next.ServeHTTP(rw, r)
		})
	})
	health := monitor.New(monitor.Config{})
	c, err := New(Config{Workers: []string{w.srv.URL}, Heartbeat: 10 * time.Millisecond, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dispatch(context.Background(), quickSweep("s1", 3), nil); err != nil {
		t.Fatal(err)
	}
	wantSeries := "fleet_rtt:" + w.srv.URL
	for _, s := range health.Snapshot() {
		if s.Name == wantSeries && s.N > 0 {
			return
		}
	}
	t.Errorf("no %s series in the health monitor: %+v", wantSeries, health.Snapshot())
}

// TestDispatchAbortsWhenAllWorkersDead: a fleet that is entirely
// unreachable fails the dispatch with a clear error instead of hanging.
func TestDispatchAbortsWhenAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // bound-then-closed: connection refused
	c, err := New(Config{Workers: []string{dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Dispatch(context.Background(), quickSweep("s1", 1), nil)
	if err == nil || !strings.Contains(err.Error(), "all 1 workers failed") {
		t.Fatalf("err = %v, want all-workers-failed", err)
	}
}

// TestDispatchAbortNamesWorkerErrors: a fleet of version-skewed workers
// that refuse every shard with a 400 still fails as a dead fleet — the
// shards are requeued first — but the abort names each worker's last
// error, so the cause is not lost.
func TestDispatchAbortNamesWorkerErrors(t *testing.T) {
	const refusal = `unknown field "points"`
	var urls []string
	for i := 0; i < 2; i++ {
		skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				fmt.Fprintf(w, "{\"error\":%q}\n", refusal)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(skewed.Close)
		urls = append(urls, skewed.URL)
	}
	c, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Dispatch(context.Background(), quickSweep("s1", 1), nil)
	if err == nil || !strings.Contains(err.Error(), "all 2 workers failed") {
		t.Fatalf("err = %v, want all-workers-failed", err)
	}
	for _, u := range urls {
		if !strings.Contains(err.Error(), u+": service: HTTP 400: "+refusal) {
			t.Errorf("abort does not name %s's 400: %v", u, err)
		}
	}
}

// TestDispatchCancellation: cancelling the dispatch context returns the
// cancellation and drains the fleet — no worker is left running the job.
func TestDispatchCancellation(t *testing.T) {
	ws := startFleet(t, 2)
	c, err := New(Config{Workers: fleetURLs(ws), ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err = c.Dispatch(ctx, quickSweep("s2", 5), func(p Progress) {
		once.Do(cancel) // cancel as soon as the first point merges
	})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	// Drain check: every job on every worker reaches a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for _, w := range ws {
		for {
			busy := false
			for _, j := range w.svc.Jobs() {
				if !j.State.Terminal() {
					busy = true
				}
			}
			if !busy {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s still has non-terminal jobs after cancellation", w.srv.URL)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestNewValidatesFleet pins the constructor's validation.
func TestNewValidatesFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "at least one worker") {
		t.Errorf("empty fleet err = %v", err)
	}
	if _, err := New(Config{Workers: []string{"127.0.0.1:1", "http://127.0.0.1:1"}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate fleet err = %v", err)
	}
	if _, err := New(Config{Workers: []string{"ftp://x"}}); err == nil {
		t.Error("bad scheme accepted")
	}
	c, err := New(Config{Workers: []string{"127.0.0.1:9", "http://b:1/"}})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Workers()
	if len(got) != 2 || got[0] != "http://127.0.0.1:9" || got[1] != "http://b:1" {
		t.Errorf("normalized fleet = %v", got)
	}
}

// TestDispatchRejectsUnknownSweep: registry errors, and specs that are
// not a shard spec without points, surface before any worker is
// contacted.
func TestDispatchRejectsUnknownSweep(t *testing.T) {
	c, err := New(Config{Workers: []string{"127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	withPoints := quickSweep("s1", 1)
	withPoints.Points = []int{0}
	for _, tc := range []struct {
		spec service.JobSpec
		want string
	}{
		{service.JobSpec{Kind: service.KindShard, Sweep: "nope"}, "unknown sweep"},
		{service.JobSpec{Kind: service.KindSweep, Sweep: "s1", Quick: true}, "without points"},
		{withPoints, "without points"},
	} {
		if _, err := c.Dispatch(context.Background(), tc.spec, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Dispatch(%+v) = %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// TestKernelFailureAbortsDispatch pins the deterministic-failure rule: a
// shard job that ends failed (not a lost worker) aborts the whole
// dispatch, carrying the remote kernel's error message via the Wait
// contract instead of retrying the failure around the fleet.
func TestKernelFailureAbortsDispatch(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	w := startWorker(t, service.Config{CacheDir: cacheDir}, nil)
	// Sabotage the worker's cache after construction: the next shard job's
	// sweep.NewCache fails, which is a real (deterministic) job failure.
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cacheDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workers: []string{w.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Dispatch(context.Background(), quickSweep("s1", 1), nil)
	if err == nil {
		t.Fatal("dispatch with a failing worker kernel returned nil error")
	}
	var jfe *service.JobFailedError
	if !errors.As(err, &jfe) {
		t.Fatalf("err = %T %v, want to wrap *service.JobFailedError", err, err)
	}
	if !strings.Contains(err.Error(), "cache") {
		t.Errorf("dispatch error %q does not carry the remote failure message", err)
	}
	if !strings.Contains(err.Error(), w.srv.URL) {
		t.Errorf("dispatch error %q does not name the worker", err)
	}
}

// TestNewDistributorAdaptsServiceHook covers the daemon-side adapter: an
// empty fleet declines (local fallback), a live fleet handles the job and
// forwards per-point progress.
func TestNewDistributorAdaptsServiceHook(t *testing.T) {
	empty := NewDistributor(func() []string { return nil }, "", nil)
	if _, handled, err := empty(context.Background(), service.JobSpec{Kind: service.KindSweep, Sweep: "s1", Quick: true}, nil); handled || err != nil {
		t.Fatalf("empty fleet: handled=%v err=%v, want decline", handled, err)
	}

	ws := startFleet(t, 2)
	dist := NewDistributor(func() []string { return fleetURLs(ws) }, t.TempDir(), monitor.New(monitor.Config{}))
	var mu sync.Mutex
	points := 0
	rep, handled, err := dist(context.Background(),
		service.JobSpec{Kind: service.KindSweep, Sweep: "s1", Quick: true, Seed: 6},
		func(p sweep.Progress) {
			mu.Lock()
			points++
			mu.Unlock()
		})
	if err != nil || !handled {
		t.Fatalf("live fleet: handled=%v err=%v", handled, err)
	}
	want := localOracle(t, "s1", 6)
	if points != len(want.Rows) {
		t.Errorf("forwarded %d progress events, want %d", points, len(want.Rows))
	}
	assertSummariesByteIdentical(t, rep.Summary(), want)
}

// TestBackpressureDoesNotKillWorker: a worker answering 503 (queue full /
// draining) is busy, not dead — its shard is requeued, the worker stays
// in the fleet, and the dispatch still completes exactly.
func TestBackpressureDoesNotKillWorker(t *testing.T) {
	var rejected atomic.Int64
	busy := startWorker(t, service.Config{}, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Reject the first submission with the service's own
			// queue-full answer, then behave normally.
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && rejected.Add(1) <= 1 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = w.Write([]byte(`{"error":"service: job queue full"}`))
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	peer := startWorker(t, service.Config{}, nil)

	// Default heartbeat: an aggressive one false-positives on a loaded
	// 1-CPU CI box where a computing worker answers /v1/healthz slowly.
	c, err := New(Config{Workers: []string{busy.srv.URL, peer.srv.URL}, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Dispatch(context.Background(), quickSweep("s2", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rejected.Load() < 1 {
		t.Fatalf("middleware rejected %d submissions, want the first", rejected.Load())
	}
	if d.Stats.Backpressure != 1 {
		t.Errorf("stats = %+v, want backpressure == 1", d.Stats)
	}
	// The one 503 must not have killed the worker or counted as a
	// failure reassignment. (Whether the backed-off worker gets another
	// shard before the peer drains the queue is timing — not asserted.)
	if len(d.Stats.Failed) != 0 || d.Stats.Reassigned != 0 {
		t.Errorf("503 answer was treated as worker death: %+v", d.Stats)
	}
	assertSummariesByteIdentical(t, d.Report.Summary(), localOracle(t, "s2", 1))
}
