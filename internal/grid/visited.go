package grid

import (
	"math/bits"

	"repro/internal/spatial"
)

// maxDenseRadius is the largest dense-window radius NewVisitSet will back
// with an up-front bitmap: (2·1024+1)² bits ≈ 525 KB per set (one per
// worker stripe in the engines). Above it the window bitmap alone would
// dwarf the cells a walk actually touches, so the set switches to the
// sparse hierarchical index, whose memory tracks touched tiles instead of
// arena area.
const maxDenseRadius = 1024

// VisitSet records which grid points have been visited. For radii up to
// maxDenseRadius it combines a dense bitmap for the window [-r, r]² around
// the origin (the region the experiments care about) with a sparse
// hierarchical tile index for the rare excursions beyond it, so coverage
// statistics over the D-ball are cheap while remaining exact for arbitrary
// walks. For larger radii — unbounded-arena runs — the whole set lives in
// the tile index and memory scales with cells touched, not with (2r+1)².
// Both modes are observationally identical; the engines pick purely by
// radius.
//
// VisitSet is not safe for concurrent use; the simulation engine gives each
// worker its own set and merges afterwards.
type VisitSet struct {
	r     int64
	side  int64
	dense []uint64 // nil in sparse mode

	// ext holds the points outside the dense window (hybrid mode, lazily
	// allocated) or every point (sparse mode).
	ext *spatial.Index

	count  int64 // total distinct points visited
	inBall int64 // distinct points visited with norm <= r
}

// NewVisitSet returns a visit set with a ball radius of r. Radii up to
// maxDenseRadius get a dense window bitmap (a radius of 0 still tracks the
// origin densely); larger radii select the sparse backing automatically.
func NewVisitSet(r int64) *VisitSet {
	if r < 0 {
		r = 0
	}
	if r > maxDenseRadius {
		return NewSparseVisitSet(r)
	}
	side := 2*r + 1
	words := (side*side + 63) / 64
	return &VisitSet{
		r:     r,
		side:  side,
		dense: make([]uint64, words),
	}
}

// NewSparseVisitSet returns a visit set with ball radius r backed entirely
// by the sparse tile index, regardless of radius. NewVisitSet selects this
// mode automatically for large radii; the explicit constructor exists for
// the oracle-equality tests and for benchmarks that want the sparse path at
// small radii.
func NewSparseVisitSet(r int64) *VisitSet {
	if r < 0 {
		r = 0
	}
	return &VisitSet{
		r:    r,
		side: 2*r + 1,
		ext:  spatial.NewIndex(),
	}
}

// Radius returns the ball radius the set was created with.
func (v *VisitSet) Radius() int64 { return v.r }

// Sparse reports whether the set is in fully-sparse mode (no dense window
// bitmap).
func (v *VisitSet) Sparse() bool { return v.dense == nil }

// denseIndex locates p's bit in the dense window. The unsigned compares
// fold the max-norm test into the translation: 0 ≤ p+r ≤ 2r on both axes is
// exactly |p| ≤ r, with out-of-window coordinates wrapping to huge values.
func (v *VisitSet) denseIndex(p Point) (word int64, mask uint64, ok bool) {
	ux := uint64(p.X + v.r)
	uy := uint64(p.Y + v.r)
	side := uint64(v.side)
	if ux >= side || uy >= side {
		return 0, 0, false
	}
	idx := uy*side + ux
	return int64(idx >> 6), uint64(1) << (idx & 63), true
}

// Visit marks p as visited and reports whether it was newly visited. The
// dense-window fast path is small enough to inline into the engines' step
// loops; everything else lives in visitSlow.
func (v *VisitSet) Visit(p Point) bool {
	if v.dense != nil {
		if word, mask, ok := v.denseIndex(p); ok {
			if v.dense[word]&mask != 0 {
				return false
			}
			v.dense[word] |= mask
			v.count++
			v.inBall++
			return true
		}
	}
	return v.visitSlow(p)
}

// visitSlow handles the index-backed cases of Visit: excursions beyond the
// dense window (hybrid mode) and every visit in sparse mode.
func (v *VisitSet) visitSlow(p Point) bool {
	if v.dense != nil {
		if v.ext == nil {
			v.ext = spatial.NewIndex()
		}
		if !v.ext.Visit(p.X, p.Y) {
			return false
		}
		v.count++
		return true
	}
	if !v.ext.Visit(p.X, p.Y) {
		return false
	}
	v.count++
	if p.Norm() <= v.r {
		v.inBall++
	}
	return true
}

// VisitBatch marks every point in ps as visited, equivalent to calling
// Visit on each point in order (minus the per-point return values). The
// engines buffer a stripe's positions and flush them through this entry
// point, so the whole batch runs with its state in locals: the dense
// window for in-window points, and a spatial.Cursor holding the current
// leaf tile for the sparse set and hybrid excursions. A run of visits to
// one tile makes no call, and count/inBall are updated once per batch.
func (v *VisitSet) VisitBatch(ps []Point) {
	r := v.r
	var cur spatial.Cursor
	if v.ext != nil {
		cur = v.ext.Cursor()
	}
	if v.dense == nil {
		var inBall int64
		for _, p := range ps {
			fresh, ok := cur.Visit(p.X, p.Y)
			if !ok {
				cur.Enter(p.X, p.Y)
				fresh, _ = cur.Visit(p.X, p.Y)
			}
			if fresh && p.Norm() <= r {
				inBall++
			}
		}
		v.count += cur.Flush()
		v.inBall += inBall
		return
	}
	dense := v.dense
	side := uint64(v.side)
	var added int64
	for _, p := range ps {
		ux := uint64(p.X + r)
		uy := uint64(p.Y + r)
		if ux >= side || uy >= side {
			// Hybrid excursion: every ext point has norm > r.
			if v.ext == nil {
				v.ext = spatial.NewIndex()
				cur = v.ext.Cursor()
			}
			if _, ok := cur.Visit(p.X, p.Y); !ok {
				cur.Enter(p.X, p.Y)
				cur.Visit(p.X, p.Y)
			}
			continue
		}
		idx := uy*side + ux
		word, mask := idx>>6, uint64(1)<<(idx&63)
		if dense[word]&mask == 0 {
			dense[word] |= mask
			added++
		}
	}
	v.count += added
	v.inBall += added
	if v.ext != nil {
		v.count += cur.Flush()
	}
}

// Contains reports whether p has been visited.
func (v *VisitSet) Contains(p Point) bool {
	if v.dense != nil {
		if word, mask, ok := v.denseIndex(p); ok {
			return v.dense[word]&mask != 0
		}
	}
	return v.ext != nil && v.ext.Contains(p.X, p.Y)
}

// Count returns the number of distinct visited points.
func (v *VisitSet) Count() int64 { return v.count }

// CountInBall returns the number of distinct visited points with max-norm at
// most the ball radius. It is the numerator of the coverage fraction used
// by the lower-bound experiments.
func (v *VisitSet) CountInBall() int64 { return v.inBall }

// CoverageFraction returns the fraction of the radius-r ball's points that
// have been visited.
func (v *VisitSet) CoverageFraction() float64 {
	total := BallSize(v.r)
	return float64(v.inBall) / float64(total)
}

// Merge adds every point visited in other into v. Same-radius, same-mode
// sets merge structurally — word-OR over the dense window and over aligned
// index tiles, no per-point hashing; otherwise points are re-classified
// against v's window one by one. Merging does not modify other.
func (v *VisitSet) Merge(other *VisitSet) {
	if other == nil {
		return
	}
	if other.r == v.r && other.Sparse() == v.Sparse() {
		if v.dense != nil {
			for i, w := range other.dense {
				nw := w &^ v.dense[i]
				if nw != 0 {
					added := int64(bits.OnesCount64(nw))
					v.dense[i] |= w
					v.count += added
					v.inBall += added
				}
			}
			if other.ext != nil {
				if v.ext == nil {
					v.ext = spatial.NewIndex()
				}
				// Hybrid invariant: every ext point has norm > r, so the
				// merge cannot change inBall.
				added, _ := v.ext.Merge(other.ext, -1)
				v.count += added
			}
			return
		}
		added, addedInBall := v.ext.Merge(other.ext, v.r)
		v.count += added
		v.inBall += addedInBall
		return
	}
	other.Each(func(p Point) { v.Visit(p) })
}

// Each calls fn for every visited point, inside or outside the ball.
// Iteration order is unspecified.
func (v *VisitSet) Each(fn func(Point)) {
	if v.dense == nil {
		v.ext.Each(func(x, y int64) { fn(Point{X: x, Y: y}) })
		return
	}
	v.EachDense(fn)
	if v.ext != nil {
		v.ext.Each(func(x, y int64) { fn(Point{X: x, Y: y}) })
	}
}

// EachDense calls fn for every visited point with max-norm at most the ball
// radius. In dense mode it iterates set bits word-by-word
// (bits.TrailingZeros64), so the cost is O(words + visited); in sparse mode
// it walks the index with ball pruning, so the cost is proportional to the
// tiles intersecting the ball.
func (v *VisitSet) EachDense(fn func(Point)) {
	if v.dense == nil {
		v.ext.EachInBall(v.r, func(x, y int64) { fn(Point{X: x, Y: y}) })
		return
	}
	for wi, w := range v.dense {
		base := int64(wi) * 64
		for w != 0 {
			idx := base + int64(bits.TrailingZeros64(w))
			w &= w - 1 // clear lowest set bit
			fn(Point{X: idx%v.side - v.r, Y: idx/v.side - v.r})
		}
	}
}
