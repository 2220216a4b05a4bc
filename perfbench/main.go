// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three closed-loop workloads with a single client, each op generated
// from the workload seed:
//
//   - search: Non-Uniform-Search (Algorithm 1) on the asynchronous engine,
//     the paper's upper bound;
//   - swarm: colonies of compiled automata on the rounds engine, the
//     lower-bound side, in three op classes (hit, cover, field);
//   - fleet: sweep jobs through an in-process antsimd coordinator that
//     dispatches to two in-process worker daemons.
//
// It checks every op's output, prints an outcome digest, and ends with one
// JSON line of metrics: end-to-end metrics untraced (--trace 0), or
// per-layer metrics from a traced run (--trace 1). The traced run first
// runs untraced for half the time, so it also reports the tracing
// overhead and checks that both halves produced the same outcomes.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// op runs op i of the workload's sequence and returns a canonical
	// line describing its outcome. It returns an error when the op
	// failed or its output is wrong. parent is the op's span.
	op(i, parent int) (string, error)
	// check runs the after-phase correctness checks over the ops run so
	// far and returns how many of them they found wrong.
	check() (failed int, err error)
	// layers returns the workload's per-layer metrics from a traced phase
	// of the given number of ops.
	layers(ops int) map[string]float64
	// close releases everything set-up acquired.
	close() error
}

// setupFunc builds a workload. Spans it records go to tr (nil when
// untraced) under the span parent; dir is a fresh directory it may use for
// state.
type setupFunc func(seed uint64, tr *tracer, parent int, dir string) (workload, error)

// bench is a workload's set-up and the clock that times it (see clock.go).
type bench struct {
	setup setupFunc
	clock clock
}

var workloads = map[string]bench{
	"search": {setupSearch, cpuClock},
	"swarm":  {setupSwarm, cpuClock},
	"fleet":  {setupFleet, wallClock},
}

// Run shape. Set-up repeats setupReps times (see runPhase) and setup_s is
// their median; each repetition ends with one untimed warm-up op. A timed phase lasts
// its share of --seconds and at least a minimum number of ops — minOps in
// an untraced run, so op_p90_ms always has at least ten samples beyond it,
// and digestOps in the halves of a traced run — but never longer than
// maxPhase.
const (
	setupReps = 9
	minOps    = 100
	maxPhase  = 120 * time.Second
)

// setupMetricNames are the per-layer set-up spans every workload reports.
var setupMetricNames = []string{"automata.compile", "scenario.build", "search.factory", "service.start"}

// perLayerMetrics lists every metric a traced run prints, with its unit.
// Each workload fills the ones of the layers it calls; the others read 0.
var perLayerMetrics = []struct{ name, unit string }{
	// search
	{"sim.run_ms", "ms"}, {"sim.moves", "count"}, {"sim.ns_per_move", "ns"},
	// swarm
	{"sim.rounds.hit.ns_per_agent_round", "ns"}, {"sim.rounds.hit.agent_rounds", "count"},
	{"sim.rounds.cover.ns_per_agent_round", "ns"}, {"sim.rounds.cover.agent_rounds", "count"},
	{"sim.rounds.field.ns_per_agent_round", "ns"}, {"sim.rounds.field.agent_rounds", "count"},
	{"grid.visited_cells", "count"}, {"grid.coverage_ms", "ms"},
	// set-up, every workload
	{"automata.compile_ms", "ms"}, {"scenario.build_ms", "ms"}, {"search.factory_ms", "ms"}, {"service.start_ms", "ms"},
	// fleet
	{"service.submit_ms", "ms"}, {"service.wait_ms", "ms"}, {"service.result_ms", "ms"}, {"service.repeat_ms", "ms"},
	{"service.queue_wait_ms", "ms"}, {"service.execute_ms", "ms"},
	{"cluster.shard_jobs_per_op", "count"}, {"cluster.stolen_per_op", "count"},
	{"cluster.worker_execute_ms", "ms"}, {"cluster.overhead_ms", "ms"},
	{"sweep.cache_hit_frac.fresh", "fraction"}, {"sweep.cache_hit_frac.repeat", "fraction"},
	{"sweep.cache_bytes_per_op", "bytes"}, {"service.data_bytes_per_op", "bytes"}, {"service.wal_errors", "count"},
	// the benchmark itself
	{"bench.self_ms", "ms"}, {"bench.untraced_ops_per_s", "1/s"}, {"bench.traced_ops_per_s", "1/s"},
	{"bench.trace_overhead_pct", "%"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: search, swarm or fleet")
		seed     = flag.Uint64("seed", 1, "workload seed; the op sequence is a function of it")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for state, traces and recorded digests")
	)
	flag.Parse()
	b, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := execute(*name, b, *seed, *seconds, *trace == 1, *buildDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is the outcome of one timed phase.
type phase struct {
	latencies  []float64 // per op, ms
	outcomes   []string
	failed     int
	elapsed    time.Duration // op loop time on the workload's clock, pauses excluded
	wall       time.Duration // the same on the wall clock
	setupTimes []float64     // seconds per set-up repetition
	layers     map[string]float64
}

func (p *phase) opsPerSec() float64 { return float64(len(p.latencies)) / p.elapsed.Seconds() }

func execute(name string, b bench, seed uint64, seconds float64, traced bool, buildDir string) (*result, error) {
	stateRoot := filepath.Join(buildDir, "state", fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(stateRoot)
	share := time.Duration(seconds * float64(time.Second))
	least := minOps
	if traced {
		share /= 2
		least = digestOps
	}

	// Untraced phase: every run has one.
	plain, err := runPhase(b, seed, nil, filepath.Join(stateRoot, "untraced"), share, least)
	if err != nil {
		return nil, err
	}
	dig, err := digest(plain.outcomes)
	if err != nil {
		return nil, err
	}
	correct := plain.failed == 0
	if err := recordDigest(buildDir, name, seed, dig); err != nil {
		fmt.Printf("digest mismatch: %v\n", err)
		correct = false
	}
	fmt.Printf("workload %s seed %d: outcome digest %s (first %d ops)\n", name, seed, dig, digestOps)

	res := &result{Attempted: len(plain.latencies), Failed: plain.failed, Metrics: map[string]metric{}}
	if !traced {
		p := highestPercentile(len(plain.latencies))
		fmt.Printf("op latency over %d samples: p50 %.3f ms, p90 %.3f ms, highest percentile with %d samples beyond: p%g %.3f ms\n",
			len(plain.latencies), percentile(plain.latencies, 50), percentile(plain.latencies, 90),
			minBeyond, p, percentile(plain.latencies, p))
		fmt.Printf("setup_s over %d repetitions: %v\n", len(plain.setupTimes), plain.setupTimes)
		fmt.Printf("op loop: %d ops in %.3f s on the workload's clock, %.3f s on the wall clock\n",
			len(plain.latencies), plain.elapsed.Seconds(), plain.wall.Seconds())
		if beyond(len(plain.latencies), 90) < minBeyond {
			return nil, fmt.Errorf("only %d samples: op_p90_ms needs %d beyond it", len(plain.latencies), minBeyond)
		}
		res.Metrics["ops_per_s"] = metric{plain.opsPerSec(), "1/s"}
		res.Metrics["op_p50_ms"] = metric{percentile(plain.latencies, 50), "ms"}
		res.Metrics["op_p90_ms"] = metric{percentile(plain.latencies, 90), "ms"}
		res.Metrics["setup_s"] = metric{median(plain.setupTimes), "s"}
		res.Correct = correct
		return res, nil
	}

	// Traced phase: the same op sequence from a fresh set-up.
	tr := newTracer(b.clock)
	tph, err := runPhase(b, seed, tr, filepath.Join(stateRoot, "traced"), share, least)
	if err != nil {
		return nil, err
	}
	if err := compareOutcomes(plain.outcomes, tph.outcomes); err != nil {
		fmt.Printf("traced and untraced outcomes differ: %v\n", err)
		correct = false
	}
	tdig, err := digest(tph.outcomes)
	if err != nil {
		return nil, err
	}
	if tdig != dig {
		correct = false
	}
	fmt.Printf("traced outcome digest %s\n", tdig)
	res.Attempted += len(tph.latencies)
	res.Failed += tph.failed
	res.Correct = correct && res.Failed == 0

	layers := tph.layers
	for k, v := range tr.setupMedians(setupMetricNames) {
		layers[k+"_ms"] = v
	}
	self := selfByName(tr.spans)
	layers["bench.self_ms"] = self["bench.op"]
	layers["bench.untraced_ops_per_s"] = plain.opsPerSec()
	layers["bench.traced_ops_per_s"] = tph.opsPerSec()
	layers["bench.trace_overhead_pct"] = 100 * (1 - tph.opsPerSec()/plain.opsPerSec())
	printSelfTimes(self)

	tracePath := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", tracePath)
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
		delete(layers, m.name)
	}
	for k := range layers {
		return nil, fmt.Errorf("workload reported unlisted metric %q", k)
	}
	return res, nil
}

// recordDigest checks the digest against earlier runs of this build with
// the same workload and seed.
func recordDigest(buildDir, name string, seed uint64, dig string) error {
	bin, err := binaryHash()
	if err != nil {
		return err
	}
	return checkRecorded(filepath.Join(buildDir, "digests", bin, fmt.Sprintf("%s-%d", name, seed)), dig)
}

// runPhase sets the workload up, runs ops in a closed loop for d and at
// least least ops, checks them and, when tr is set, collects the
// per-layer metrics. Set-up is timed setupReps times: once for the
// instance that runs the ops, and once more at each of setupReps-1 evenly
// spaced pauses of the op loop, on throwaway instances, so the timings
// sample the whole run rather than one moment of a noisy machine. Pauses
// do not count towards the op loop's time.
func runPhase(b bench, seed uint64, tr *tracer, dir string, d time.Duration, least int) (*phase, error) {
	w, secs, err := setupOnce(b, seed, tr, filepath.Join(dir, "0"))
	if err != nil {
		return nil, err
	}
	p := &phase{setupTimes: []float64{secs}}
	err = p.measure(w, b.clock, d, least, tr, func(rep int) (float64, error) {
		extra, secs, err := setupOnce(b, seed, tr, filepath.Join(dir, fmt.Sprint(rep)))
		if err != nil {
			return 0, err
		}
		return secs, extra.close()
	})
	if err == nil {
		var failed int
		failed, err = w.check()
		p.failed += failed
	}
	if err == nil && tr != nil {
		p.layers = w.layers(len(p.latencies))
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	return p, err
}

// setupOnce sets the workload up from a collected heap in a fresh state
// directory and runs the warm-up op, and returns the seconds that took on
// the workload's clock.
func setupOnce(b bench, seed uint64, tr *tracer, dir string) (workload, float64, error) {
	runtime.GC()
	t0 := b.clock()
	root := tr.start("bench.setup", 0, setupOp)
	w, err := b.setup(seed, tr, root, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if _, err := w.op(warmupOp, root); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	tr.end(root)
	return w, (b.clock() - t0).Seconds(), nil
}

// measure runs ops in a closed loop until the loop has run for d of wall
// time and at least least ops are done. At each k/setupReps of d
// (0 < k < setupReps) it pauses the loop and records the seconds
// extraSetup(k) takes. Op latencies and the loop's elapsed time are read
// on clk.
func (p *phase) measure(w workload, clk clock, d time.Duration, least int, tr *tracer, extraSetup func(rep int) (float64, error)) error {
	var paused, pausedClk time.Duration
	start, startClk := time.Now(), clk()
	rep := 1
	for i := 0; ; {
		el := time.Since(start) - paused
		if rep < setupReps && el >= d*time.Duration(rep)/setupReps {
			t0, c0 := time.Now(), clk()
			secs, err := extraSetup(rep)
			if err != nil {
				return err
			}
			p.setupTimes = append(p.setupTimes, secs)
			paused += time.Since(t0)
			pausedClk += clk() - c0
			rep++
			continue
		}
		if (el >= d && i >= least) || el >= maxPhase {
			break
		}
		t0 := clk()
		sp := tr.start("bench.op", 0, i)
		out, err := w.op(i, sp)
		tr.end(sp)
		p.latencies = append(p.latencies, ms(clk()-t0))
		if err != nil {
			p.failed++
			fmt.Printf("op %d failed: %v\n", i, err)
			out = "failed"
		}
		p.outcomes = append(p.outcomes, out)
		i++
	}
	p.elapsed = clk() - startClk - pausedClk
	p.wall = time.Since(start) - paused
	return nil
}

// warmupOp is the op index of the warm-up op. Its inputs come from a fixed
// seed, not the workload seed, so set-up does the same work every run.
const warmupOp = -1

// printSelfTimes prints the median self time of every span name.
func printSelfTimes(self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("median self time per span:")
	for _, n := range names {
		fmt.Printf("  %-24s %10.4f ms\n", n, self[n])
	}
}
