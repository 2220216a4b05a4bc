package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Sentinel errors of the service API. The HTTP layer maps them to status
// codes (see writeError in http.go).
var (
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotDone: the job has no result artifacts (yet or ever).
	ErrNotDone = errors.New("service: job has no result (not done)")
	// ErrTerminal: the job already reached a terminal state.
	ErrTerminal = errors.New("service: job already terminal")
	// ErrQueueFull: the submission queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed: the service is draining or closed and accepts no new jobs.
	ErrClosed = errors.New("service: shutting down")
	// ErrBadFormat: the requested artifact format is not "json" or "csv".
	ErrBadFormat = errors.New(`service: artifact format must be "json" or "csv"`)
	// ErrInvalidSpec wraps a job-spec validation failure (HTTP 400).
	ErrInvalidSpec = errors.New("service: invalid job spec")
	// ErrRoundsOnlyScenario: a scenario job names a preset only the rounds
	// engine runs (a heterogeneous colony or the adaptive adversary).
	ErrRoundsOnlyScenario = errors.New("service: rounds-only scenario preset; run it with antsim -scenario")
	// ErrTooManyTrials: a scenario job asks for more than maxTrials trials.
	ErrTooManyTrials = errors.New("service: too many trials")
	// ErrArtifactTooLarge fails a job on a durable daemon whose
	// artifacts would not fit in one WAL frame (framing.MaxPayload): the
	// done frame carries them, and replay stops at a frame over the bound.
	ErrArtifactTooLarge = errors.New("service: job artifacts too large for the write-ahead log")
	// ErrCorruptLog wraps a durable-state inconsistency that replay
	// refuses to serve (New fails): an intact WAL frame or snapshot entry
	// that the store could not have written, such as a malformed job id,
	// an event for an unknown job, or an event Seq gap.
	ErrCorruptLog = errors.New("service: corrupt durable log")
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the job worker pool size — how many jobs execute
	// concurrently (default 2). Each job additionally fans out internally
	// per its spec's Workers field.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheDir, when non-empty, roots the sweep-point cache shared by
	// every sweep and shard job (and by CLI runs and other daemons pointed
	// at the same directory; see sweep.Cache for the pack layout). Sweep
	// jobs then resume: previously computed points are served from disk.
	CacheDir string
	// DataDir, when non-empty, makes the job store durable: a write-ahead
	// log under it records every submission and event, and each finished
	// job's artifacts ride in the log frame of its done event, so a
	// restart replays them byte for byte. Artifacts too large for one
	// frame fail the job with ErrArtifactTooLarge.
	DataDir string
	// WorkerTTL is how long a joined cluster worker stays in the fleet
	// without a fresh heartbeat (default DefaultWorkerTTL). Tests shrink
	// it to exercise expiry quickly.
	WorkerTTL time.Duration
	// MonitorInterval is the fleet-health sampling cadence (default
	// DefaultMonitorInterval). Tests shrink it to drive the monitor
	// quickly.
	MonitorInterval time.Duration
	// EventKeepalive is the idle-stream keepalive cadence of
	// /v1/jobs/{id}/events (default DefaultEventKeepalive). Tests shrink
	// it to observe keepalive frames quickly.
	EventKeepalive time.Duration
}

// Stats is the service's aggregate state, served at /v1/stats.
type Stats struct {
	// UptimeSec is the seconds since the service started.
	UptimeSec float64 `json:"uptime_sec"`
	// Workers is the configured worker pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of jobs queued and not yet claimed.
	QueueDepth int `json:"queue_depth"`
	// Queued counts jobs waiting for a worker.
	Queued int `json:"queued"`
	// Running counts jobs currently executing.
	Running int `json:"running"`
	// Done counts jobs finished successfully.
	Done int `json:"done"`
	// Failed counts jobs that ended with a kernel error.
	Failed int `json:"failed"`
	// Cancelled counts jobs cancelled by a client or by shutdown.
	Cancelled int `json:"cancelled"`
	// PointsDone counts finished sweep grid points since start.
	PointsDone int64 `json:"points_done"`
	// PointsPerSec is PointsDone over the uptime.
	PointsPerSec float64 `json:"points_per_sec"`
	// CacheHits counts the points served from the sweep cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheHitRate is CacheHits/PointsDone (0 when no points ran).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Draining reports that Close has begun: no new jobs are accepted.
	Draining bool `json:"draining"`
	// WALErrors counts write-ahead-log append/compaction failures since
	// start. Non-zero means durability is degraded (a restart may lose
	// recent records) while the in-memory store keeps serving.
	WALErrors int64 `json:"wal_errors,omitempty"`
}

// Service is the daemon core: a bounded job queue, a worker pool that
// executes jobs through the sweep and simulation layers, per-job event
// logs, and finished artifacts. Create one with New, expose it with
// Handler, stop it with Close. All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	store *store

	// The queue is a FIFO slice guarded by qmu rather than a buffered
	// channel: cancelling a queued job must free its capacity slot
	// immediately, which a channel cannot do (the tombstone would occupy
	// the buffer until a worker drains it). qlive counts the queued,
	// not-yet-terminal records — the number capacity checks and
	// Stats.QueueDepth report; qitems may additionally hold tombstones
	// of jobs cancelled while queued, which workers skip.
	qmu     sync.Mutex
	qcond   *sync.Cond
	qitems  []*record
	qlive   int
	qclosed bool

	sealMu sync.RWMutex // guards sealed vs. submissions
	sealed bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	start      time.Time

	pointsDone   atomic.Int64
	pointsCached atomic.Int64

	// execute runs one claimed job and returns its artifacts; tests
	// substitute a controllable fake to exercise the lifecycle machinery.
	execute func(ctx context.Context, rec *record) (jsonArtifact, csvArtifact []byte, err error)

	distMu      sync.RWMutex
	distributor Distributor

	registry workerRegistry

	// mon control-charts the daemon's own gauges (points/sec, cache hit
	// rate, queue depth, worker heartbeat ages);
	// monitorLoop feeds it and monOnce/monStop stop the loop — and the
	// WAL compaction loop — exactly once on Close.
	mon     *monitor.Monitor
	monStop chan struct{}
	monOnce sync.Once

	// wal is the durable store's write-ahead log (nil without a DataDir);
	// compactCh kicks the compaction loop when enough records accumulate.
	wal       *wal
	compactCh chan struct{}
}

// Distributor runs a sweep job across a remote worker fleet instead of
// locally. internal/cluster implements it and cmd/antsimd wires it in with
// SetDistributor, keeping the dependency arrow service ← cluster acyclic.
// It returns handled=false to decline (e.g. no live workers joined), in
// which case the service falls back to local execution; progress receives
// one event per merged grid point, exactly like a local run's.
type Distributor func(ctx context.Context, spec JobSpec, progress func(sweep.Progress)) (rep *sweep.Report, handled bool, err error)

// SetDistributor installs the distributed-sweep executor consulted by
// every subsequent sweep job. Call it before the daemon starts accepting
// submissions; passing nil restores pure local execution.
func (s *Service) SetDistributor(d Distributor) {
	s.distMu.Lock()
	s.distributor = d
	s.distMu.Unlock()
}

// getDistributor returns the installed distributor, or nil.
func (s *Service) getDistributor() Distributor {
	s.distMu.RLock()
	defer s.distMu.RUnlock()
	return s.distributor
}

// New builds and starts a Service: the worker pool is running and Submit
// is immediately usable. With a DataDir, New first replays the write-ahead
// log on top of the last snapshot — restoring every job's id, event log
// (Seq numbers included) and artifacts byte-identically — then re-enqueues
// jobs that were queued at shutdown and re-executes jobs that were running
// at crash time (their artifacts stay byte-identical by construction:
// execution is deterministic and previously computed points come from the
// cache).
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheDir != "" {
		if _, err := sweep.NewCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = DefaultMonitorInterval
	}
	if cfg.EventKeepalive <= 0 {
		cfg.EventKeepalive = DefaultEventKeepalive
	}
	st := newStore()
	var w *wal
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: create data dir: %w", err)
		}
		lastSeg, err := st.replayDurable(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		w, err = openWAL(cfg.DataDir, lastSeg)
		if err != nil {
			return nil, err
		}
		st.attachWAL(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		store:      st,
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
		mon:        monitor.New(monitor.Config{Mode: monitor.Linear}),
		monStop:    make(chan struct{}),
		wal:        w,
		compactCh:  make(chan struct{}, 1),
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.registry.ttl = cfg.WorkerTTL
	s.execute = s.executeGrid
	if w != nil {
		w.notify = func() {
			select {
			case s.compactCh <- struct{}{}:
			default:
			}
		}
		s.recoverDurable()
		s.wg.Add(1)
		go s.compactLoop()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.monitorLoop()
	return s, nil
}

// recoverDurable re-enqueues replayed jobs that still need a worker:
// queued jobs re-enter the queue as they were, jobs that were running at
// crash time get a fresh queued state event (durably logged) and run
// again. A done job's artifacts come from its replayed records; a data
// directory written before artifacts moved into the log keeps them in
// <id>.json and <id>.csv, read here, and a done job with neither is
// re-executed rather than served a hole. Runs before the worker pool
// starts.
func (s *Service) recoverDurable() {
	now := time.Now()
	for _, job := range s.store.list() {
		rec, ok := s.store.get(job.ID)
		if !ok {
			continue
		}
		requeue := false
		rec.mu.Lock()
		switch rec.job.State {
		case StateQueued:
			requeue = true
		case StateRunning:
			rec.setStateLocked(StateQueued, "", now)
			requeue = true
		case StateDone:
			if rec.art != nil {
				break
			}
			jsonB, jerr := os.ReadFile(filepath.Join(s.cfg.DataDir, rec.job.ID+".json"))
			csvB, cerr := os.ReadFile(filepath.Join(s.cfg.DataDir, rec.job.ID+".csv"))
			if jerr == nil && cerr == nil {
				rec.art = &artifacts{JSON: jsonB, CSV: csvB}
			} else {
				rec.setStateLocked(StateQueued, "", now)
				requeue = true
			}
		}
		rec.mu.Unlock()
		if requeue {
			s.qmu.Lock()
			s.qitems = append(s.qitems, rec)
			s.qlive++
			s.qmu.Unlock()
		}
	}
}

// compactLoop runs WAL compactions kicked by append volume until Close.
func (s *Service) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.monStop:
			return
		case <-s.compactCh:
			s.compactWAL()
		}
	}
}

// compactWAL bounds replay cost: rotate to a fresh segment, snapshot the
// in-memory store (a superset of everything in the rotated-out segments —
// WAL appends happen under the record locks the snapshot takes), publish
// it atomically, and only then delete the old segments. A crash anywhere
// in between is safe: replay applies the snapshot first and skips
// whatever the surviving segments duplicate.
func (s *Service) compactWAL() {
	old := s.wal.rotate()
	snap := s.store.snapshotAll()
	size, err := writeSnapshot(s.wal.dir, snap)
	if err != nil {
		s.wal.errs.Add(1)
		s.wal.compactionDone(0)
		return // keep the old segments: they still cover the un-snapshotted state
	}
	s.wal.compactionDone(size)
	for _, p := range old {
		_ = os.Remove(p)
	}
}

// Submit normalizes and validates the spec, registers a queued job, and
// hands it to the worker pool. It returns the job snapshot (state queued),
// an ErrInvalidSpec-wrapped validation error, ErrClosed when the service
// is draining, or ErrQueueFull at capacity.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Job{}, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	if s.sealed {
		return Job{}, ErrClosed
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	// Capacity counts live queued jobs only — a rejected submission is
	// never registered, so it is never transiently visible in the store.
	if s.qlive >= s.cfg.QueueDepth {
		return Job{}, ErrQueueFull
	}
	rec := s.store.add(spec, time.Now())
	s.qitems = append(s.qitems, rec)
	s.qlive++
	s.qcond.Signal()
	return rec.snapshot(), nil
}

// queuedGone releases one live-queued slot: the record left the queued
// state (a worker claimed it, or it was cancelled while waiting).
func (s *Service) queuedGone() {
	s.qmu.Lock()
	s.qlive--
	s.qmu.Unlock()
}

// pop blocks until the oldest queue entry is available (possibly a
// tombstone of a job cancelled while queued, which the caller skips) or
// the queue is closed and drained.
func (s *Service) pop() (*record, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.qitems) == 0 {
		if s.qclosed {
			return nil, false
		}
		s.qcond.Wait()
	}
	rec := s.qitems[0]
	s.qitems[0] = nil
	s.qitems = s.qitems[1:]
	return rec, true
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (Job, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	return rec.snapshot(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []Job { return s.store.list() }

// Cancel requests cancellation of a job. A queued job transitions to
// cancelled immediately; a running job is cancelled asynchronously (watch
// the event stream for the terminal state) at its next grid-point
// boundary, whatever its kind, so it reads cancelled only once its point
// in flight (a trial, for a scenario job) has ended. It returns
// ErrTerminal when the job already finished.
func (s *Service) Cancel(id string) (Job, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	switch {
	case rec.job.State == StateQueued:
		rec.setStateLocked(StateCancelled, "cancelled while queued", time.Now())
		s.queuedGone() // free the capacity slot right away
	case rec.job.State == StateRunning:
		if rec.cancelFn != nil {
			rec.cancelFn()
		}
	default:
		return Job{}, fmt.Errorf("%w: %s is %s", ErrTerminal, id, rec.job.State)
	}
	return rec.job, nil
}

// Artifact returns a finished job's result artifact in the given format
// ("json" or "csv"). It returns ErrNotDone until the job reaches the done
// state.
func (s *Service) Artifact(id, format string) ([]byte, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return nil, ErrNotFound
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.job.State != StateDone {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, rec.job.State)
	}
	switch format {
	case "", "json":
		return rec.art.JSON, nil
	case "csv":
		return rec.art.CSV, nil
	default:
		return nil, fmt.Errorf("%w, got %q", ErrBadFormat, format)
	}
}

// Stats returns the service's aggregate state.
func (s *Service) Stats() Stats {
	s.qmu.Lock()
	depth := s.qlive
	s.qmu.Unlock()
	st := Stats{
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		QueueDepth: depth,
		PointsDone: s.pointsDone.Load(),
		CacheHits:  s.pointsCached.Load(),
	}
	st.Draining = s.draining()
	if s.wal != nil {
		st.WALErrors = s.wal.errs.Load()
	}
	for _, j := range s.store.list() {
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	if st.UptimeSec > 0 {
		st.PointsPerSec = float64(st.PointsDone) / st.UptimeSec
	}
	if st.PointsDone > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(st.PointsDone)
	}
	return st
}

// draining reports whether Close has begun.
func (s *Service) draining() bool {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	return s.sealed
}

// Close drains the service: new submissions are rejected, still-queued
// jobs are cancelled, and running jobs are given until ctx's deadline to
// finish. If the deadline strikes first, running jobs are cancelled as
// Cancel cancels them (the sweep cache stays consistent — entries commit
// atomically per point) and Close returns ctx's error once their points
// in flight end; otherwise it returns nil. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.sealMu.Lock()
	s.sealed = true
	s.sealMu.Unlock()

	// Cancel everything still waiting in the queue; workers skip the
	// tombstones while draining.
	for _, j := range s.store.list() {
		if j.State == StateQueued {
			if rec, ok := s.store.get(j.ID); ok {
				rec.mu.Lock()
				if rec.job.State == StateQueued {
					rec.setStateLocked(StateCancelled, "cancelled by shutdown", time.Now())
					s.queuedGone()
				}
				rec.mu.Unlock()
			}
		}
	}
	s.qmu.Lock()
	if !s.qclosed {
		s.qclosed = true
		s.qcond.Broadcast()
	}
	s.qmu.Unlock()
	s.monOnce.Do(func() { close(s.monStop) })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.wal.close()
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	<-done
	s.wal.close()
	return ctx.Err()
}

// worker claims jobs off the queue until it closes and drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		rec, ok := s.pop()
		if !ok {
			return
		}
		s.runOne(rec)
	}
}

// runOne drives one claimed record through the lifecycle: running, then
// done/failed/cancelled depending on the executor's outcome.
func (s *Service) runOne(rec *record) {
	rec.mu.Lock()
	if rec.job.State != StateQueued { // tombstone: cancelled while queued
		rec.mu.Unlock()
		return
	}
	s.queuedGone() // the record leaves the queued population
	ctx, cancel := context.WithCancel(s.baseCtx)
	rec.cancelFn = cancel
	rec.setStateLocked(StateRunning, "", time.Now())
	rec.mu.Unlock()
	defer cancel()

	jsonB, csvB, err := s.execute(ctx, rec)

	// The done event's WAL frame carries the artifacts, so a durable
	// daemon must not claim done for results that frame cannot hold.
	if err == nil && s.wal != nil && !artifactsFit(jsonB, csvB) {
		err = fmt.Errorf("%w: %d JSON and %d CSV bytes", ErrArtifactTooLarge, len(jsonB), len(csvB))
	}

	rec.mu.Lock()
	switch {
	case err != nil && ctx.Err() != nil:
		rec.setStateLocked(StateCancelled, err.Error(), time.Now())
	case err != nil:
		rec.setStateLocked(StateFailed, err.Error(), time.Now())
	default:
		rec.art = &artifacts{JSON: jsonB, CSV: csvB}
		rec.setStateLocked(StateDone, "", time.Now())
	}
	rec.mu.Unlock()
}

// executeGrid is the real executor. Every kind runs its grid (JobSpec.Grid)
// like the equivalent antsim invocation: the listed points, or every point
// when Points is empty, through sweep.RunPointsContext, serving cache hits
// from CacheDir. Only a sweep job offers itself to the Distributor first.
// A scenario job runs one trial at a time with the engine over
// spec.Workers, so it holds one trial's agents in memory; the other kinds
// run spec.Workers points at once on single-threaded engines.
func (s *Service) executeGrid(ctx context.Context, rec *record) ([]byte, []byte, error) {
	spec := rec.snapshot().Spec
	g, kernel, label, err := spec.Grid()
	if err != nil {
		return nil, nil, err
	}
	idxs := spec.Points
	if len(idxs) == 0 {
		idxs = make([]int, g.Size())
		for i := range idxs {
			idxs[i] = i
		}
	}
	rec.setTotal(len(idxs))
	progress := func(p sweep.Progress) {
		s.pointsDone.Add(1)
		if p.Cached {
			s.pointsCached.Add(1)
		}
		rec.progress(p.Done, p.Total, p.Point.String(), p.Cached)
	}
	var rep *sweep.Report
	if d := s.getDistributor(); spec.Kind == KindSweep && d != nil {
		// Distributed execution: the cluster layer shards the grid across
		// joined workers and merges a report identical to a local run's.
		// handled=false (no live fleet) falls through to local execution.
		drep, handled, err := d(ctx, spec, progress)
		if err != nil {
			return nil, nil, err
		}
		if handled {
			rep = drep
		}
	}
	if rep == nil {
		opts := sweep.Options{Seed: spec.Seed, Shards: spec.Workers, Workers: 1, Progress: progress}
		if spec.Kind == KindScenario {
			opts.Shards, opts.Workers = 1, spec.Workers
		}
		if s.cfg.CacheDir != "" {
			cache, err := sweep.NewCache(s.cfg.CacheDir)
			if err != nil {
				return nil, nil, err
			}
			opts.Cache = cache
			opts.Resume = true
		}
		if rep, err = sweep.RunPointsContext(ctx, g, idxs, kernel, opts); err != nil {
			return nil, nil, err
		}
	}
	return renderArtifacts(spec, label, rep)
}

// renderArtifacts renders a finished grid run as the job's JSON and CSV
// artifacts by kind: the summary for a sweep job, a ShardArtifact for a
// shard job (both serve the summary CSV), and the trials folded in order
// into a scenarioArtifact for a scenario job.
func renderArtifacts(spec JobSpec, label string, rep *sweep.Report) ([]byte, []byte, error) {
	var art any
	var csv string
	switch spec.Kind {
	case KindScenario:
		scn, _, _, audit, err := spec.scenarioRun().Build(0)
		if err != nil {
			return nil, nil, err
		}
		st := experiment.FoldTrials(rep.Points)
		sa := scenarioArtifact{SchemaVersion: scenarioArtifactSchemaVersion, Spec: spec, Scenario: scn.Spec,
			World: scn.WorldName(), Targets: len(scn.Targets), Audit: audit, FoundFrac: st.FoundFrac}
		if len(st.Moves) > 0 {
			sum, err := stats.Summarize(st.Moves)
			if err != nil {
				return nil, nil, err
			}
			sa.Samples, sa.MeanMoves, sa.CI95Moves = sum.N, sum.Mean, sum.CI95
			sa.MedianMoves, sa.MinMoves, sa.MaxMoves = sum.Median, sum.Min, sum.Max
		}
		art, csv = sa, scenarioCSV(sa)
	case KindShard:
		art, csv = newShardArtifact(label, rep), rep.Summary().CSV()
	default:
		sum := rep.Summary()
		art, csv = sum, sum.CSV()
	}
	jsonB, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(jsonB, '\n'), []byte(csv), nil
}

// scenarioArtifactSchemaVersion versions the scenario-job artifact layout.
const scenarioArtifactSchemaVersion = 1

// scenarioArtifact is the JSON result of a scenario job. Every field is a
// deterministic function of the normalized spec; there is no timing, so
// the JSON (and the derived CSV) is byte-stable across runs, hosts and
// worker counts.
type scenarioArtifact struct {
	SchemaVersion int     `json:"schema_version"`
	Spec          JobSpec `json:"spec"`
	Scenario      string  `json:"scenario"` // canonical spec string
	World         string  `json:"world"`
	Targets       int     `json:"targets"`
	Audit         string  `json:"audit"`
	FoundFrac     float64 `json:"found_frac"`
	Samples       int     `json:"samples"`
	MeanMoves     float64 `json:"mean_moves"`
	CI95Moves     float64 `json:"ci95_moves"`
	MedianMoves   float64 `json:"median_moves"`
	MinMoves      float64 `json:"min_moves"`
	MaxMoves      float64 `json:"max_moves"`
}

// scenarioCSV renders a scenario artifact as a one-row CSV using the
// sweep layer's shared quoting and float-format rules — a canonical
// scenario spec like "torus:crash=0.1,l=48" contains commas and must be
// quoted.
func scenarioCSV(a scenarioArtifact) string {
	return "scenario,world,targets,found_frac,samples,mean,ci95,median,min,max\n" + fmt.Sprintf("%s,%s,%d,%s,%d,%s,%s,%s,%s,%s\n",
		sweep.CSVField(a.Scenario), sweep.CSVField(a.World), a.Targets,
		sweep.CSVFloat(a.FoundFrac), a.Samples,
		sweep.CSVFloat(a.MeanMoves),
		sweep.CSVFloat(a.CI95Moves),
		sweep.CSVFloat(a.MedianMoves),
		sweep.CSVFloat(a.MinMoves),
		sweep.CSVFloat(a.MaxMoves))
}
