package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// allKernels is every kernel a snapshot must report (tracks measureBaseline).
var allKernels = []string{
	"compiled_next", "walker_step", "dense_walker_step",
	"s1_coverage_curve", "e6_coverage", "sparse_world_step", "e1_nonuniform",
	"rounds_hit",
}

func TestRunBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline measurement takes ~1s")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	start := time.Now()
	if err := run([]string{"-baseline", path}, &out); err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline took %v", time.Since(start))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	for _, k := range allKernels {
		if b.Kernels[k] <= 0 {
			t.Errorf("kernel %q missing or non-positive: %v", k, b.Kernels[k])
		}
	}
	if b.GoVersion == "" || b.Timestamp == "" {
		t.Errorf("metadata incomplete: %+v", b)
	}
	if b.Parent != "" {
		t.Errorf("-baseline must write a root snapshot, got parent %q", b.Parent)
	}
	if b.SchemaVersion != baselineSchemaVersion {
		t.Errorf("schema_version = %d, want %d", b.SchemaVersion, baselineSchemaVersion)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("no confirmation output: %q", out.String())
	}
}

func TestRunSnapshotRecordsParent(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot measurement takes ~1s")
	}
	path := filepath.Join(t.TempDir(), "candidate.json")
	var out strings.Builder
	if err := run([]string{"-snapshot", path, "-parent", "BENCH_root.json"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if b.Parent != "BENCH_root.json" {
		t.Errorf("parent = %q, want BENCH_root.json", b.Parent)
	}
	if b.SchemaVersion != baselineSchemaVersion {
		t.Errorf("schema_version = %d, want %d", b.SchemaVersion, baselineSchemaVersion)
	}
}

// refSnapshot writes a synthetic reference snapshot with the given kernel
// values and returns its path.
func refSnapshot(t *testing.T, kernels map[string]float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.json")
	data, err := json.Marshal(Baseline{
		SchemaVersion: baselineSchemaVersion,
		GoVersion:     "go-test",
		Timestamp:     "2026-01-01T00:00:00Z",
		Kernels:       kernels,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselineGate(t *testing.T) {
	candidate := Baseline{Kernels: map[string]float64{
		"compiled_next":     10,
		"walker_step":       20,
		"sparse_world_step": 5000,
	}}

	// Within tolerance (and a new kernel the reference lacks): pass.
	okRef := refSnapshot(t, map[string]float64{"compiled_next": 9.0, "walker_step": 19.0})
	var out strings.Builder
	if err := compareBaseline(candidate, okRef, 0.15, &out); err != nil {
		t.Fatalf("compare within tolerance failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "(new)") {
		t.Errorf("new kernel not reported: %q", out.String())
	}

	// A gated kernel beyond tolerance: fail, naming the kernel.
	badRef := refSnapshot(t, map[string]float64{"compiled_next": 8.0, "walker_step": 19.0})
	out.Reset()
	err := compareBaseline(candidate, badRef, 0.15, &out)
	if err == nil {
		t.Fatalf("compare past tolerance did not fail:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "compiled_next") {
		t.Errorf("gate error does not name the kernel: %v", err)
	}

	// A non-gated kernel regressing arbitrarily: still pass.
	slowDense := refSnapshot(t, map[string]float64{
		"compiled_next": 10, "walker_step": 20, "sparse_world_step": 1,
	})
	out.Reset()
	if err := compareBaseline(candidate, slowDense, 0.15, &out); err != nil {
		t.Fatalf("non-gated kernel tripped the gate: %v", err)
	}

	// Improvements of any size: pass.
	fastRef := refSnapshot(t, map[string]float64{"compiled_next": 1000, "walker_step": 1000})
	out.Reset()
	if err := compareBaseline(candidate, fastRef, 0.15, &out); err != nil {
		t.Fatalf("improvement tripped the gate: %v", err)
	}

	// Missing reference file: a plain error, not a pass.
	if err := compareBaseline(candidate, filepath.Join(t.TempDir(), "absent.json"), 0.15, &out); err == nil {
		t.Error("missing reference snapshot did not error")
	}
}
