package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 90, 10}, {99, 90, 9}, {110, 90, 11}, {1000, 99, 10}, {1000, 99.5, 5}, {1, 50, 0}, {0, 50, 0},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{
		{1000, 99}, {200, 95}, {100, 90}, {99, 80}, {50, 80}, {40, 75}, {20, 50}, {19, 0},
	} {
		if got := highestPercentile(c.n); got != c.p {
			t.Errorf("highestPercentile(%d) = p%g, want p%g", c.n, got, c.p)
		}
		if c.p > 0 && beyond(c.n, c.p) < minBeyond {
			t.Errorf("p%g of %d samples has only %d beyond it", c.p, c.n, beyond(c.n, c.p))
		}
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 90) != 0 || mean(nil) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestDigestComparison(t *testing.T) {
	ops := make([]string, digestOps+5)
	for i := range ops {
		ops[i] = strings.Repeat("x", i)
	}
	a, err := digest(ops)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(ops[:digestOps])
	if a != b {
		t.Error("digest should cover only the first digestOps outcomes")
	}
	changed := slices.Clone(ops)
	changed[3] = "other"
	if c, _ := digest(changed); c == a {
		t.Error("a changed outcome left the digest equal")
	}
	if _, err := digest(ops[:digestOps-1]); err == nil {
		t.Error("digest of too few ops should fail")
	}

	if err := compareOutcomes(ops, ops[:7]); err != nil {
		t.Errorf("a prefix should compare equal: %v", err)
	}
	err = compareOutcomes(ops, changed)
	if err == nil || !strings.Contains(err.Error(), "op 3 ") {
		t.Errorf("compareOutcomes = %v, want a difference at op 3", err)
	}

	path := filepath.Join(t.TempDir(), "d", "search-1")
	if err := checkRecorded(path, a); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if err := checkRecorded(path, a); err != nil {
		t.Errorf("same digest again: %v", err)
	}
	if err := checkRecorded(path, "different"); err == nil {
		t.Error("a different digest for the same seed should fail")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},   // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},  // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},   // grandchild
		{ID: 6, Name: "bench.op", Start: 200 * ms, End: 210 * ms},     // no children
		{ID: 7, Parent: 6, Name: "a", Start: 200 * ms, End: 210 * ms}, // covers it all
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms, 6: 0, 7: 10 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	// Nearest-rank medians of two samples take the lower one.
	byName := selfByName(spans)
	if byName["bench.op"] != 0 || byName["a"] != 10 || byName["b"] != 20 {
		t.Errorf("median self times %v", byName)
	}

	tr := &tracer{spans: []span{
		{ID: 1, Op: setupOp, Name: "bench.setup", Start: 0, End: 10 * ms},
		{ID: 2, Op: setupOp, Parent: 1, Name: "search.factory", Start: 1 * ms, End: 2 * ms},
		{ID: 3, Op: setupOp, Parent: 1, Name: "search.factory", Start: 3 * ms, End: 5 * ms},
		{ID: 4, Op: setupOp, Name: "bench.setup", Start: 20 * ms, End: 30 * ms},
		{ID: 5, Op: setupOp, Parent: 4, Name: "search.factory", Start: 21 * ms, End: 22 * ms},
		{ID: 6, Op: setupOp, Name: "bench.setup", Start: 40 * ms, End: 50 * ms},
	}}
	// Per repetition: 3, 1 and 0 ms; the median is 1 ms.
	if got := tr.setupMedians([]string{"search.factory"})["search.factory"]; got != 1 {
		t.Errorf("setup median = %v ms, want 1", got)
	}
}

func TestStrataCoverTheBall(t *testing.T) {
	const d = 6
	n := int64((2*d+1)*(2*d+1) - 1)
	seen := map[grid.Point]bool{}
	prev := int64(0)
	for k := int64(0); k < n; k++ {
		p := ringPoint(k)
		if p == grid.Origin || p.Norm() > d || seen[p] {
			t.Fatalf("ringPoint(%d) = %v: origin, outside the ball or repeated", k, p)
		}
		if p.Norm() < prev {
			t.Fatalf("ringPoint(%d) = %v goes back to a lower ring", k, p)
		}
		seen[p], prev = true, p.Norm()
	}
	g := &gen{s: 7}
	for j := 0; j < strata; j++ {
		for i := 0; i < 50; i++ {
			p := stratumPoint(g, 512, j)
			if p == grid.Origin || p.Norm() > 512 {
				t.Fatalf("stratum %d drew %v", j, p)
			}
		}
	}
}

// TestBenchmarkJSONNamesMatch keeps the metric names the program prints in
// step with the ones BENCHMARK.json declares.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	e2e := map[string]string{"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s"}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s [%s] is not printed with that unit", m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerMetrics) && (m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// fakeWorkload is a workload whose every op advances a fake clock by step.
type fakeWorkload struct {
	now  *time.Duration
	step time.Duration
}

func (w fakeWorkload) op(i, _ int) (string, error)   { *w.now += w.step; return "ok", nil }
func (w fakeWorkload) check() (int, error)           { return 0, nil }
func (w fakeWorkload) layers(int) map[string]float64 { return nil }
func (w fakeWorkload) close() error                  { return nil }

// TestMeasureOnWorkloadClock checks that op latencies and the loop's
// elapsed time are read on the workload's clock, and that the set-up
// pauses are left out of the elapsed time.
func TestMeasureOnWorkloadClock(t *testing.T) {
	var now time.Duration
	clk := func() time.Duration { return now }
	w := fakeWorkload{now: &now, step: 10 * time.Millisecond}
	p := &phase{}
	err := p.measure(w, clk, 0, 5, nil, func(int) (float64, error) {
		now += time.Second
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.setupTimes) != setupReps-1 {
		t.Errorf("%d extra set-ups, want %d", len(p.setupTimes), setupReps-1)
	}
	if len(p.latencies) != 5 || p.elapsed != 50*time.Millisecond {
		t.Fatalf("%d ops in %v, want 5 in 50ms", len(p.latencies), p.elapsed)
	}
	for _, l := range p.latencies {
		if l != 10 {
			t.Errorf("op latency %v ms, want 10", l)
		}
	}
	if got := p.opsPerSec(); got != 100 {
		t.Errorf("ops_per_s %v, want 100", got)
	}
}

// TestCPUClockAdvances checks that busy work moves the CPU clock.
func TestCPUClockAdvances(t *testing.T) {
	t0, wall := cpuClock(), time.Now()
	x := uint64(1)
	for cpuClock()-t0 < 5*time.Millisecond {
		if time.Since(wall) > 10*time.Second {
			t.Fatalf("CPU clock moved %v in 10 s of busy work", cpuClock()-t0)
		}
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if x == 0 {
		t.Log(x)
	}
}
