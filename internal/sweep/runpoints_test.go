package sweep

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunPointsMatchesFullRun is the shard-equality contract behind
// distributed sweeps: evaluating any subset of grid points through
// RunPointsContext yields exactly the results a full Run produces for those
// points — same params, same samples, same values — regardless of which
// other indexes ride along in the subset.
func TestRunPointsMatchesFullRun(t *testing.T) {
	g := testGrid() // 6 points
	full, err := Run(g, testKernel, Options{Seed: 11, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, idxs := range [][]int{{0}, {5}, {1, 3}, {4, 0, 2}, {0, 1, 2, 3, 4, 5}} {
		rep, err := RunPointsContext(context.Background(), g, idxs, testKernel, Options{Seed: 11, Shards: 2})
		if err != nil {
			t.Fatalf("RunPointsContext(%v): %v", idxs, err)
		}
		got := rep.Points
		if len(got) != len(idxs) {
			t.Fatalf("RunPointsContext(%v) returned %d results", idxs, len(got))
		}
		for i, idx := range idxs {
			want := full.Points[idx]
			got[i].Result.ElapsedSec = 0
			wantCopy := *want.Result
			wantCopy.ElapsedSec = 0
			if got[i].Point.Index != idx {
				t.Errorf("idxs %v slot %d: point index %d, want %d", idxs, i, got[i].Point.Index, idx)
			}
			if !reflect.DeepEqual(*got[i].Result, wantCopy) {
				t.Errorf("idxs %v point %d differs from full run:\n%+v\nvs\n%+v", idxs, idx, *got[i].Result, wantCopy)
			}
		}
	}
}

// TestRunPointsWarmCacheZeroKernelCalls: a shard run against a cache that
// already holds its points must make zero kernel calls — the property that
// lets a warm worker serve a federation shard as pure metadata.
func TestRunPointsWarmCacheZeroKernelCalls(t *testing.T) {
	c := newTestCache(t)
	g := testGrid()
	if _, err := Run(g, testKernel, Options{Seed: 3, Cache: c}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	rep, err := RunPointsContext(context.Background(), g, []int{1, 4, 5}, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 3, Cache: c, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("warm-cache shard made %d kernel calls, want 0", calls.Load())
	}
	for _, pr := range rep.Points {
		if !pr.Cached {
			t.Errorf("point %d not marked cached", pr.Point.Index)
		}
	}

	// A cold cache computes and writes back: a second identical shard run
	// is then fully cached.
	c2 := newTestCache(t)
	if _, err := RunPointsContext(context.Background(), g, []int{2, 3}, testKernel, Options{Seed: 3, Cache: c2, Resume: true}); err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	if _, err := RunPointsContext(context.Background(), g, []int{2, 3}, func(p Point, ctx Ctx) (*Result, error) {
		calls.Add(1)
		return testKernel(p, ctx)
	}, Options{Seed: 3, Cache: c2, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("second shard run made %d kernel calls, want 0", calls.Load())
	}
}

// TestRunPointsValidatesIndexes: out-of-range and duplicate indexes are
// programming errors of the dispatching layer and must be rejected, not
// silently dropped or double-run.
func TestRunPointsValidatesIndexes(t *testing.T) {
	g := testGrid()
	cases := []struct {
		idxs []int
		want string
	}{
		{nil, "no point indexes"},
		{[]int{6}, "out of range"},
		{[]int{-1}, "out of range"},
		{[]int{2, 2}, "requested twice"},
	}
	for _, tc := range cases {
		_, err := RunPointsContext(context.Background(), g, tc.idxs, testKernel, Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunPointsContext(%v) err = %v, want substring %q", tc.idxs, err, tc.want)
		}
	}
}

// TestRunPointsCancellation: a cancelled context stops the run at a point
// boundary with the context's error.
func TestRunPointsCancellation(t *testing.T) {
	g := testGrid()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPointsContext(ctx, g, []int{0, 1, 2}, testKernel, Options{Seed: 1, Shards: 1})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
}
