package grid

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestEachDenseEnumeratesExactly: the word-level iteration must report each
// visited in-window point exactly once and nothing else, including points on
// word boundaries and window corners.
func TestEachDenseEnumeratesExactly(t *testing.T) {
	v := NewVisitSet(9) // side 19: rows straddle 64-bit word boundaries
	want := map[Point]bool{
		{X: -9, Y: -9}: true, // first bit of word 0
		{X: 9, Y: 9}:   true, // last bit of the last word
		{X: 0, Y: 0}:   true,
		{X: -3, Y: 4}:  true,
		{X: 7, Y: -2}:  true,
		{X: 8, Y: -9}:  true,
	}
	for p := range want {
		v.Visit(p)
	}
	v.Visit(Point{X: 50, Y: 50}) // sparse: must not appear
	got := map[Point]int{}
	v.EachDense(func(p Point) { got[p]++ })
	if len(got) != len(want) {
		t.Errorf("EachDense visited %d points, want %d: %v", len(got), len(want), got)
	}
	for p, n := range got {
		if !want[p] {
			t.Errorf("EachDense reported unvisited point %v", p)
		}
		if n != 1 {
			t.Errorf("EachDense reported %v %d times", p, n)
		}
	}
}

// TestEachDenseMatchesContains cross-checks the bit iteration against the
// Contains probe over a random fill.
func TestEachDenseMatchesContains(t *testing.T) {
	v := NewVisitSet(13)
	src := rng.New(7)
	for i := 0; i < 300; i++ {
		v.Visit(Point{X: src.Intn(27) - 13, Y: src.Intn(27) - 13})
	}
	var n int64
	v.EachDense(func(p Point) {
		n++
		if !v.Contains(p) {
			t.Errorf("EachDense reported %v but Contains disagrees", p)
		}
	})
	if n != v.CountInBall() {
		t.Errorf("EachDense enumerated %d points, CountInBall = %d", n, v.CountInBall())
	}
}

// TestMergeSmallerIntoLarger: merging a small-radius set into a larger one
// must re-classify every dense point into the target window and keep the
// counters exact.
func TestMergeSmallerIntoLarger(t *testing.T) {
	a := NewVisitSet(8)
	b := NewVisitSet(2)
	pts := []Point{{X: 0, Y: 0}, {X: 2, Y: -2}, {X: -1, Y: 1}}
	for _, p := range pts {
		b.Visit(p)
	}
	b.Visit(Point{X: 5, Y: 5})  // sparse in b, dense in a
	b.Visit(Point{X: 20, Y: 0}) // sparse in both
	a.Visit(Point{X: 2, Y: -2}) // overlap: must not double count
	a.Merge(b)
	if got, want := a.CountInBall(), int64(4); got != want { // 3 pts + (5,5)
		t.Errorf("CountInBall = %d, want %d", got, want)
	}
	if got, want := a.Count(), int64(5); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	for _, p := range append(pts, Point{X: 5, Y: 5}, Point{X: 20, Y: 0}) {
		if !a.Contains(p) {
			t.Errorf("merged set missing %v", p)
		}
	}
}

// TestMergeLargerIntoSmaller: dense points of the source that fall outside
// the target's window must land in the sparse overflow, still counted once.
func TestMergeLargerIntoSmaller(t *testing.T) {
	a := NewVisitSet(2)
	b := NewVisitSet(8)
	b.Visit(Point{X: 1, Y: 1})  // dense in both
	b.Visit(Point{X: 6, Y: -6}) // dense in b, sparse in a
	b.Visit(Point{X: 6, Y: -6}) // revisit: no double count at the source
	a.Merge(b)
	if got, want := a.Count(), int64(2); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := a.CountInBall(), int64(1); got != want {
		t.Errorf("CountInBall = %d, want %d", got, want)
	}
	if !a.Contains(Point{X: 6, Y: -6}) {
		t.Error("merged set missing re-classified point")
	}
}

// TestMergeCrossRadiusMatchesUnion is a randomized union check across
// differing dense radii in both directions.
func TestMergeCrossRadiusMatchesUnion(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		ra := src.Intn(12) + 1
		rb := src.Intn(12) + 1
		a := NewVisitSet(ra)
		b := NewVisitSet(rb)
		union := map[Point]bool{}
		fill := func(v *VisitSet, n int64) {
			for i := int64(0); i < n; i++ {
				p := Point{X: src.Intn(31) - 15, Y: src.Intn(31) - 15}
				v.Visit(p)
				union[p] = true
			}
		}
		fillA := src.Intn(60)
		fillB := src.Intn(60)
		fill(a, fillA)
		fill(b, fillB)
		a.Merge(b)
		if a.Count() != int64(len(union)) {
			t.Fatalf("trial %d (ra=%d rb=%d): Count = %d, want %d",
				trial, ra, rb, a.Count(), len(union))
		}
		var inBall int64
		for p := range union {
			if !a.Contains(p) {
				t.Fatalf("trial %d: merged set missing %v", trial, p)
			}
			if p.Norm() <= ra {
				inBall++
			}
		}
		if a.CountInBall() != inBall {
			t.Fatalf("trial %d: CountInBall = %d, want %d", trial, a.CountInBall(), inBall)
		}
	}
}

// TestSparseDenseOracleEquality is the core satellite property test: a
// forced-sparse VisitSet must be observationally identical to the dense
// oracle on 10⁴-step random walks, across radii spanning the dense window,
// the boundary, and far excursions.
func TestSparseDenseOracleEquality(t *testing.T) {
	for _, r := range []int64{0, 1, 16, 63, 64, 100, 1000} {
		src := rng.New(uint64(r)*1000 + 3)
		dense := NewVisitSet(r)
		sparse := NewSparseVisitSet(r)
		if dense.Sparse() || !sparse.Sparse() {
			t.Fatalf("r=%d: mode selection broken: dense.Sparse=%v sparse.Sparse=%v",
				r, dense.Sparse(), sparse.Sparse())
		}
		var p Point
		for step := 0; step < 10000; step++ {
			switch src.Intn(5) {
			case 0:
				p.X++
			case 1:
				p.X--
			case 2:
				p.Y++
			case 3:
				p.Y--
			case 4:
				// Long jump: exercise the excursion store.
				p = Point{X: src.Intn(4*r+4001) - 2*r - 2000, Y: src.Intn(4*r+4001) - 2*r - 2000}
			}
			dv := dense.Visit(p)
			sv := sparse.Visit(p)
			if dv != sv {
				t.Fatalf("r=%d step %d: Visit(%v) dense=%v sparse=%v", r, step, p, dv, sv)
			}
			if dense.Count() != sparse.Count() || dense.CountInBall() != sparse.CountInBall() {
				t.Fatalf("r=%d step %d: counts diverge: dense (%d,%d) sparse (%d,%d)",
					r, step, dense.Count(), dense.CountInBall(),
					sparse.Count(), sparse.CountInBall())
			}
		}
		if dense.CoverageFraction() != sparse.CoverageFraction() {
			t.Fatalf("r=%d: coverage fractions diverge", r)
		}
		// Point-for-point equality both ways.
		dense.Each(func(q Point) {
			if !sparse.Contains(q) {
				t.Fatalf("r=%d: sparse missing %v", r, q)
			}
		})
		n := 0
		sparse.Each(func(q Point) {
			n++
			if !dense.Contains(q) {
				t.Fatalf("r=%d: sparse has extra %v", r, q)
			}
		})
		if int64(n) != dense.Count() {
			t.Fatalf("r=%d: sparse Each yielded %d points, want %d", r, n, dense.Count())
		}
		// EachDense (ball-restricted iteration) must agree as sets.
		db := map[Point]bool{}
		dense.EachDense(func(q Point) { db[q] = true })
		sn := 0
		sparse.EachDense(func(q Point) {
			sn++
			if !db[q] {
				t.Fatalf("r=%d: sparse EachDense yielded %v outside dense oracle", r, q)
			}
		})
		if sn != len(db) {
			t.Fatalf("r=%d: EachDense sizes diverge: sparse %d dense %d", r, sn, len(db))
		}
	}
}

// TestSparseMergeMatchesDenseMerge checks the structural word-OR merge in
// both modes against per-point union, including the striped-worker pattern
// (same radius, same mode) the engines use at checkpoints.
func TestSparseMergeMatchesDenseMerge(t *testing.T) {
	const r = 32
	src := rng.New(77)
	walk := func(v *VisitSet, n int) {
		var p Point
		for i := 0; i < n; i++ {
			p.X += src.Intn(3) - 1
			p.Y += src.Intn(3) - 1
			if src.Intn(50) == 0 {
				p = Point{X: src.Intn(401) - 200, Y: src.Intn(401) - 200}
			}
			v.Visit(p)
		}
	}
	da, sa := NewVisitSet(r), NewSparseVisitSet(r)
	db, sb := NewVisitSet(r), NewSparseVisitSet(r)
	// Identical fills: rewind the stream for the sparse twins.
	walk(da, 3000)
	walk(db, 3000)
	src = rng.New(77)
	walk(sa, 3000)
	walk(sb, 3000)

	da.Merge(db)
	sa.Merge(sb)
	if da.Count() != sa.Count() || da.CountInBall() != sa.CountInBall() {
		t.Fatalf("merge diverges: dense (%d,%d) sparse (%d,%d)",
			da.Count(), da.CountInBall(), sa.Count(), sa.CountInBall())
	}
	da.Each(func(q Point) {
		if !sa.Contains(q) {
			t.Fatalf("sparse merge missing %v", q)
		}
	})
	// Cross-mode merge falls back to per-point and must still agree.
	cross := NewVisitSet(r)
	cross.Merge(sb)
	db2 := NewVisitSet(r)
	db2.Merge(db)
	if cross.Count() != db.Count() || cross.CountInBall() != db.CountInBall() {
		t.Fatalf("cross-mode merge diverges: got (%d,%d), want (%d,%d)",
			cross.Count(), cross.CountInBall(), db.Count(), db.CountInBall())
	}
}

// TestNewVisitSetAutoSelectsSparse pins the radius threshold behaviour.
func TestNewVisitSetAutoSelectsSparse(t *testing.T) {
	if NewVisitSet(1024).Sparse() {
		t.Error("radius 1024 should stay dense")
	}
	if !NewVisitSet(1025).Sparse() {
		t.Error("radius 1025 should auto-select sparse")
	}
	huge := NewVisitSet(1 << 40)
	if !huge.Visit(Point{X: 1 << 39, Y: -(1 << 39)}) {
		t.Error("sparse set rejected a far visit")
	}
	if huge.CountInBall() != 1 {
		t.Errorf("CountInBall = %d, want 1", huge.CountInBall())
	}
}

// TestVisitBatchMatchesVisit pins the engines' buffered entry point to the
// per-point oracle on dense sets (every point in the window), hybrid sets
// (window excursions) and sparse sets: the same Count, CountInBall, Each
// and Contains. The point streams mix random walks with duplicates inside
// one batch, runs back and forth across a tile edge and long runs inside
// one tile, cut into batches of varied length.
func TestVisitBatchMatchesVisit(t *testing.T) {
	streams := map[string]func(src *rng.Source, r int64) []Point{
		"walk": func(src *rng.Source, r int64) []Point {
			p := Origin
			var ps []Point
			for i := 0; i < 4000; i++ {
				p = p.Move(Direction(1 + src.Intn(4)))
				if src.Intn(200) == 0 { // excursion far outside the window
					p = Point{X: p.X + 3*r + 7, Y: p.Y - 2*r - 5}
				}
				ps = append(ps, p)
				if src.Intn(8) == 0 {
					ps = append(ps, p, ps[src.Intn(int64(len(ps)))]) // duplicates
				}
			}
			return ps
		},
		"tile edge": func(src *rng.Source, r int64) []Point {
			// Cells x = 31 and 32 lie in different 64-cell tiles (and so
			// do -33 and -32); bounce across both edges on many rows.
			var ps []Point
			for y := int64(-70); y <= 70; y++ {
				for i := 0; i < 20; i++ {
					x := 31 + src.Intn(2)
					if i%2 == 1 {
						x = -33 + src.Intn(2)
					}
					ps = append(ps, Point{X: x, Y: y}, Point{X: x + 64*src.Intn(3), Y: y})
				}
			}
			return ps
		},
		"one tile": func(src *rng.Source, r int64) []Point {
			// A long run confined to one tile well outside small windows.
			var ps []Point
			for i := 0; i < 3000; i++ {
				ps = append(ps, Point{X: 200 + src.Intn(60), Y: -300 + src.Intn(60)})
			}
			return ps
		},
	}
	for name, stream := range streams {
		for _, r := range []int64{0, 4, 64, 400} {
			for _, mode := range []string{"dense", "hybrid", "sparse"} {
				src := rng.New(uint64(r) + 41)
				ps := stream(src, r)
				mk := NewVisitSet
				if mode == "sparse" {
					mk = NewSparseVisitSet
				}
				if mode == "dense" {
					// Keep only window points, so the set never spills.
					in := ps[:0:0]
					for _, p := range ps {
						if p.Norm() <= r {
							in = append(in, p)
						}
					}
					ps = in
				}
				batched, oracle := mk(r), mk(r)
				for len(ps) > 0 {
					n := min(int(1+src.Intn(300)), len(ps))
					for _, p := range ps[:n] {
						oracle.Visit(p)
					}
					batched.VisitBatch(ps[:n])
					ps = ps[n:]
				}
				where := fmt.Sprintf("%s r=%d %s", name, r, mode)
				if (mode == "sparse") != batched.Sparse() || mode == "dense" && batched.ext != nil {
					t.Fatalf("%s: wrong backing (sparse=%v, ext=%v)", where, batched.Sparse(), batched.ext != nil)
				}
				if batched.Count() != oracle.Count() || batched.CountInBall() != oracle.CountInBall() {
					t.Fatalf("%s: batch (%d,%d) vs oracle (%d,%d)", where,
						batched.Count(), batched.CountInBall(), oracle.Count(), oracle.CountInBall())
				}
				if batched.ext != nil && batched.ext.Count() != oracle.ext.Count() {
					t.Fatalf("%s: index count %d, oracle %d", where, batched.ext.Count(), oracle.ext.Count())
				}
				seen := map[Point]bool{}
				batched.Each(func(q Point) { seen[q] = true })
				n := 0
				oracle.Each(func(q Point) {
					n++
					if !seen[q] || !batched.Contains(q) {
						t.Fatalf("%s: batch missing %v", where, q)
					}
				})
				if len(seen) != n {
					t.Fatalf("%s: batch Each yielded %d points, oracle %d", where, len(seen), n)
				}
				for i := 0; i < 500; i++ {
					q := Point{X: src.Intn(1001) - 500, Y: src.Intn(1001) - 500}
					if batched.Contains(q) != oracle.Contains(q) {
						t.Fatalf("%s: Contains(%v) disagrees", where, q)
					}
				}
			}
		}
	}
}
