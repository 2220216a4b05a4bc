package experiment

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// Regenerate the golden fixtures after a deliberate grid or kernel change
// with:
//
//	go test ./internal/experiment -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// checkQuickSummaryGolden pins a quick sweep's summary CSV byte-for-byte
// against the committed fixture testdata/<name>_quick_summary.csv. Two
// in-process runs must agree with each other first (no map-order or
// scheduling leaks), then with the fixture.
func checkQuickSummaryGolden(t *testing.T, spec SweepSpec, seed uint64) {
	t.Helper()
	run := func() string {
		t.Helper()
		_, rep, err := RunSweep(spec, Config{Seed: seed, Quick: true, Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary().CSV()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("quick %s summary is nondeterministic across runs:\n%s\nvs\n%s", spec.Name, first, second)
	}
	path := filepath.Join("testdata", spec.Name+"_quick_summary.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	if first != string(want) {
		t.Errorf("%s summary drifted from its golden fixture (deliberate change? regenerate with -update):\ngot:\n%s\nwant:\n%s", spec.Name, first, want)
	}
}

// TestS3QuickSummaryGolden pins the quick S3 sweep: the dynamic presets,
// the engines under them, and the seed derivation may not drift silently.
func TestS3QuickSummaryGolden(t *testing.T) {
	checkQuickSummaryGolden(t, s3Sweep(), 11)
}

// TestS3ShardCountInvariance: the S3 summary must be byte-identical
// whether the sweep runs on 1 or 3 shards — per-point seeds derive from
// parameters, never from scheduling.
func TestS3ShardCountInvariance(t *testing.T) {
	run := func(workers int) string {
		t.Helper()
		_, rep, err := RunSweep(s3Sweep(), Config{Seed: 5, Quick: true, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary().CSV()
	}
	if one, three := run(1), run(3); one != three {
		t.Errorf("S3 summary differs across shard counts:\n%s\nvs\n%s", one, three)
	}
}

// TestS3KillResumeRecomputesOnlyMissing is the resumability contract for
// the dynamic-worlds grid, verified by counting kernel invocations: a run
// killed mid-sweep and resumed against the same cache recomputes exactly
// the lost points, and the merged summary is byte-identical to an
// uninterrupted run.
func TestS3KillResumeRecomputesOnlyMissing(t *testing.T) {
	grid := s3Grid(Config{Quick: true})
	total := grid.Size()
	if total < 4 {
		t.Fatalf("quick S3 grid has %d points; the interruption test needs at least 4", total)
	}
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted oracle (no cache involved).
	oracle, err := sweep.Run(grid, s3Point, sweep.Options{Seed: 11, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	// First run: the kernel dies after total-2 points. Shards=1 makes the
	// claim order deterministic.
	var calls atomic.Int64
	killed := errors.New("killed")
	kill := int64(total - 2)
	_, err = sweep.Run(grid, func(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
		if calls.Add(1) > kill {
			return nil, killed
		}
		return s3Point(p, ctx)
	}, sweep.Options{Seed: 11, Shards: 1, Cache: cache, Resume: true})
	if !errors.Is(err, killed) {
		t.Fatalf("want the simulated kill, got %v", err)
	}

	// Resumed run: exactly the missing points recompute.
	calls.Store(0)
	rep, err := sweep.Run(grid, func(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
		calls.Add(1)
		return s3Point(p, ctx)
	}, sweep.Options{Seed: 11, Shards: 1, Cache: cache, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	missing := total - int(kill)
	if calls.Load() != int64(missing) {
		t.Errorf("resume made %d kernel calls, want %d", calls.Load(), missing)
	}
	if rep.Computed != missing || rep.CacheHits != int(kill) {
		t.Errorf("resume computed=%d hits=%d, want %d/%d", rep.Computed, rep.CacheHits, missing, kill)
	}
	if got, want := rep.Summary().CSV(), oracle.Summary().CSV(); got != want {
		t.Errorf("kill/resume summary differs from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestS3MachineLookup pins the machine axis: both families resolve, junk
// is rejected.
func TestS3MachineLookup(t *testing.T) {
	for _, name := range []string{"random-walk", "zigzag"} {
		if m, err := s3Machine(name); err != nil || m == nil {
			t.Errorf("s3Machine(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := s3Machine("teleport"); err == nil {
		t.Error("s3Machine accepted an unknown family")
	}
}
