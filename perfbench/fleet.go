package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/service"
)

// fleetSweeps are the registered sweeps with small quick grids; op i runs
// fleetSweeps[i mod 3].
var fleetSweeps = []string{"s1", "s2", "s3"}

// fleetTimeout bounds one op or shutdown, so a hung daemon fails the run
// instead of stalling it.
const fleetTimeout = 60 * time.Second

// daemon is one in-process antsimd: a Service behind an httptest server,
// with its cache and data directories.
type daemon struct {
	svc         *service.Service
	srv         *httptest.Server
	cache, data string
}

func startDaemon(dir string) (*daemon, error) {
	d := &daemon{cache: filepath.Join(dir, "cache"), data: filepath.Join(dir, "data")}
	svc, err := service.New(service.Config{CacheDir: d.cache, DataDir: d.data})
	if err != nil {
		return nil, err
	}
	d.svc, d.srv = svc, httptest.NewServer(svc.Handler())
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	err := d.svc.Close(ctx)
	d.srv.Close()
	return err
}

// fleetRecord is what one timed op leaves for the after-phase checks.
type fleetRecord struct {
	sweep         string
	seed          uint64
	csv           [sha256.Size]byte
	fresh, repeat service.Job
}

// fleetWorkload runs sweep jobs through a coordinator daemon whose
// distributor dispatches them to two worker daemons. Each op submits a
// fresh quick sweep job (new seed), fetches its CSV, submits the same spec
// again — served from the coordinator's cache — and byte-compares the two
// CSVs.
type fleetWorkload struct {
	seed    uint64
	tr      *tracer
	dir     string
	coord   *daemon
	workers []*daemon
	client  *service.Client
	records []fleetRecord
	// Filled by check for layers.
	shardJobs, stolen     []float64
	slowest, overhead     []float64
	cacheBytes, dataBytes int64
	walErrors             int64
}

func setupFleet(seed uint64, tr *tracer, parent int, dir string) (workload, error) {
	w := &fleetWorkload{seed: seed, tr: tr, dir: dir}
	sp := tr.start("service.start", parent, setupOp)
	err := w.start()
	tr.end(sp)
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *fleetWorkload) start() error {
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(filepath.Join(w.dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		w.workers = append(w.workers, d)
		urls = append(urls, d.srv.URL)
	}
	coord, err := startDaemon(filepath.Join(w.dir, "coordinator"))
	if err != nil {
		return err
	}
	w.coord = coord
	coord.svc.SetDistributor(cluster.NewDistributor(func() []string { return urls }, coord.cache, nil))
	w.client = service.NewClient(coord.srv.URL)
	return nil
}

func (w *fleetWorkload) op(i, parent int) (string, error) {
	g := opGen(w.seed, i)
	spec := service.JobSpec{Kind: service.KindSweep, Sweep: fleetSweeps[cellOf(i, len(fleetSweeps))], Quick: true, Seed: g.next()}
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	fresh, csv, err := w.job(ctx, spec, i, parent, w.tr)
	if err != nil {
		return "", err
	}
	sp := w.tr.start("service.repeat", parent, i)
	repeat, again, err := w.job(ctx, spec, i, 0, nil)
	w.tr.end(sp)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(csv, again) {
		return "", fmt.Errorf("%s seed %d: repeated job's CSV differs from the fresh one", spec.Sweep, spec.Seed)
	}
	sum := sha256.Sum256(csv)
	if i >= 0 {
		w.records = append(w.records, fleetRecord{sweep: spec.Sweep, seed: spec.Seed, csv: sum, fresh: fresh, repeat: repeat})
	}
	return fmt.Sprintf("fleet %s seed=%d points=%d csv=%x", spec.Sweep, spec.Seed, fresh.Total, sum[:12]), nil
}

// job submits spec, waits for it and fetches its CSV, tracing each call on
// tr (which may be nil).
func (w *fleetWorkload) job(ctx context.Context, spec service.JobSpec, i, parent int, tr *tracer) (service.Job, []byte, error) {
	sp := tr.start("service.submit", parent, i)
	job, err := w.client.Submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		return job, nil, err
	}
	sp = tr.start("service.wait", parent, i)
	job, err = w.client.Wait(ctx, job.ID)
	tr.end(sp)
	if err != nil {
		return job, nil, err
	}
	if job.State != service.StateDone || job.Total < 1 || job.Done != job.Total {
		return job, nil, fmt.Errorf("job %s ended %s with %d of %d points", job.ID, job.State, job.Done, job.Total)
	}
	sp = tr.start("service.result", parent, i)
	csv, err := w.client.Result(ctx, job.ID, "csv")
	tr.end(sp)
	return job, csv, err
}

// check compares every op's CSV with an in-process run of the same sweep
// (the CLI-equals-daemon contract) and reads the workers' job lists: a
// shard job that repeats points of another shard of the same op is a
// steal, duplicated work, and fails the op.
func (w *fleetWorkload) check() (int, error) {
	failed := map[int]bool{}
	for i, r := range w.records {
		sp, err := experiment.LookupSweep(r.sweep)
		if err != nil {
			return 0, err
		}
		_, rep, err := experiment.RunSweep(sp, experiment.Config{Seed: r.seed, Quick: true}, nil)
		if err != nil {
			return 0, fmt.Errorf("in-process %s seed %d: %w", r.sweep, r.seed, err)
		}
		if sha256.Sum256([]byte(rep.Summary().CSV())) != r.csv {
			fmt.Printf("op %d: fleet CSV of %s seed %d differs from the in-process sweep\n", i, r.sweep, r.seed)
			failed[i] = true
		}
	}

	type key struct {
		sweep string
		seed  uint64
	}
	shards := map[key][]service.Job{}
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	for _, d := range w.workers {
		jobs, err := service.NewClient(d.srv.URL).Jobs(ctx)
		if err != nil {
			return 0, fmt.Errorf("list worker jobs: %w", err)
		}
		for _, j := range jobs {
			if j.Spec.Kind == service.KindShard {
				k := key{j.Spec.Sweep, j.Spec.Seed}
				shards[k] = append(shards[k], j)
			}
		}
	}
	w.shardJobs, w.stolen, w.slowest, w.overhead = nil, nil, nil, nil
	for i, r := range w.records {
		jobs := shards[key{r.sweep, r.seed}]
		sort.Slice(jobs, func(a, b int) bool { return jobs[a].CreatedAt.Before(jobs[b].CreatedAt) })
		seen := map[int]bool{}
		stolen := 0
		var slowest time.Duration
		for _, j := range jobs {
			dup := false
			for _, p := range j.Spec.Points {
				dup = dup || seen[p]
				seen[p] = true
			}
			if dup {
				stolen++
			}
			if j.State == service.StateDone {
				slowest = max(slowest, j.FinishedAt.Sub(j.StartedAt))
			}
		}
		if stolen > 0 {
			fmt.Printf("op %d: %d stolen shard jobs\n", i, stolen)
			failed[i] = true
		}
		w.shardJobs = append(w.shardJobs, float64(len(jobs)))
		w.stolen = append(w.stolen, float64(stolen))
		w.slowest = append(w.slowest, ms(slowest))
		w.overhead = append(w.overhead, ms(r.fresh.FinishedAt.Sub(r.fresh.StartedAt)-slowest))
	}

	w.walErrors = 0
	w.cacheBytes, w.dataBytes = 0, 0
	for _, d := range append([]*daemon{w.coord}, w.workers...) {
		w.walErrors += d.svc.Stats().WALErrors
		c, err := dirBytes(d.cache)
		if err != nil {
			return 0, err
		}
		b, err := dirBytes(d.data)
		if err != nil {
			return 0, err
		}
		w.cacheBytes += c
		w.dataBytes += b
	}
	return len(failed), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (w *fleetWorkload) layers(ops int) map[string]float64 {
	var queue, exec []float64
	var hits, total, rhits, rtotal float64
	for _, r := range w.records {
		queue = append(queue, ms(r.fresh.StartedAt.Sub(r.fresh.CreatedAt)))
		exec = append(exec, ms(r.fresh.FinishedAt.Sub(r.fresh.StartedAt)))
		hits += float64(r.fresh.CacheHits)
		total += float64(r.fresh.Total)
		rhits += float64(r.repeat.CacheHits)
		rtotal += float64(r.repeat.Total)
	}
	// The set-up's warm-up op wrote to the same directories.
	written := float64(ops + 1)
	return map[string]float64{
		"service.submit_ms":           median(w.tr.millis("service.submit")),
		"service.wait_ms":             median(w.tr.millis("service.wait")),
		"service.result_ms":           median(w.tr.millis("service.result")),
		"service.repeat_ms":           median(w.tr.millis("service.repeat")),
		"service.queue_wait_ms":       median(queue),
		"service.execute_ms":          median(exec),
		"cluster.shard_jobs_per_op":   mean(w.shardJobs),
		"cluster.stolen_per_op":       mean(w.stolen),
		"cluster.worker_execute_ms":   median(w.slowest),
		"cluster.overhead_ms":         median(w.overhead),
		"sweep.cache_hit_frac.fresh":  hits / total,
		"sweep.cache_hit_frac.repeat": rhits / rtotal,
		"sweep.cache_bytes_per_op":    float64(w.cacheBytes) / written,
		"service.data_bytes_per_op":   float64(w.dataBytes) / written,
		"service.wal_errors":          float64(w.walErrors),
	}
}

func (w *fleetWorkload) close() error {
	var first error
	for _, d := range append([]*daemon{w.coord}, w.workers...) {
		if d == nil {
			continue
		}
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(w.dir); err != nil && first == nil {
		first = err
	}
	return first
}
