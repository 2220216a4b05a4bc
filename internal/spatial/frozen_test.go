package spatial

import (
	"testing"

	"repro/internal/rng"
)

// bounds is an index's tile bounding box, for comparing two indexes.
type bounds struct {
	ok                         bool
	minTX, maxTX, minTY, maxTY uint64
}

func boundsOf(ix *Index) bounds {
	return bounds{ix.hasBounds, ix.minTX, ix.maxTX, ix.minTY, ix.maxTY}
}

func TestBoundsAfterMergeMatchInserts(t *testing.T) {
	for _, teleport := range []int64{0, 300, 1 << 20} {
		src := rng.New(uint64(teleport) + 3)
		a := NewIndex()
		cells := randWalkCells(src, 2000, teleport)
		for _, c := range cells[:1000] {
			a.Visit(c.x, c.y)
		}
		// Into an empty index, then into a non-empty one.
		merged := NewIndex()
		merged.Merge(a, -1)
		direct := NewIndex()
		for _, c := range cells[:1000] {
			direct.Visit(c.x, c.y)
		}
		if got, want := boundsOf(merged), boundsOf(direct); got != want {
			t.Fatalf("teleport=%d: bounds after Merge into empty %+v, one by one %+v", teleport, got, want)
		}
		b := NewIndex()
		for _, c := range cells[1000:] {
			b.Visit(c.x, c.y)
			direct.Visit(c.x, c.y)
		}
		merged.Merge(b, -1)
		if got, want := boundsOf(merged), boundsOf(direct); got != want {
			t.Fatalf("teleport=%d: bounds after second Merge %+v, one by one %+v", teleport, got, want)
		}
	}
	if b := boundsOf(NewIndex()); b.ok {
		t.Fatalf("empty index has bounds %+v", b)
	}
}

// randRects draws n small rectangles within ±spread, with corners snapped
// near tile edges (cell x ≡ 31 or 32 mod 64 sits on one) half the time.
func randRects(src *rng.Source, n int, spread int64) [][4]int64 {
	rects := make([][4]int64, n)
	for i := range rects {
		x0 := src.Intn(2*spread+1) - spread
		y0 := src.Intn(2*spread+1) - spread
		if src.Intn(2) == 0 {
			x0 = x0&^tileMask + 31 + src.Intn(2)
			y0 = y0&^tileMask + 31 + src.Intn(2)
		}
		rects[i] = [4]int64{x0, y0, x0 + src.Intn(70), y0 + src.Intn(5)}
	}
	return rects
}

func inRects(rects [][4]int64, x, y int64) bool {
	for _, r := range rects {
		if x >= r[0] && x <= r[2] && y >= r[1] && y <= r[3] {
			return true
		}
	}
	return false
}

// probes yields query cells: every rectangle's corners and their outside
// neighbours, plus random cells inside and far outside the table.
func probes(src *rng.Source, rects [][4]int64, spread int64) [][2]int64 {
	var ps [][2]int64
	for _, r := range rects {
		for _, dx := range []int64{-1, 0, 1} {
			for _, dy := range []int64{-1, 0, 1} {
				ps = append(ps, [2]int64{r[0] + dx, r[1] + dy}, [2]int64{r[2] + dx, r[3] + dy})
			}
		}
	}
	for i := 0; i < 2000; i++ {
		s := spread + 200
		if i%4 == 0 {
			s = 1 << 40
		}
		ps = append(ps, [2]int64{src.Intn(2*s+1) - s, src.Intn(2*s+1) - s})
	}
	return ps
}

func TestFrozenContainsMatchesScan(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		spread int64
		frozen bool
	}{
		{"origin", 40, 100, true},
		{"negative", 60, 2000, true},
		// Bounds of ~19k tiles per side: above frozenMaxTiles, tree path.
		{"above cap", 20, 600000, false},
	}
	for _, tc := range cases {
		src := rng.New(uint64(tc.n)*31 + uint64(tc.spread))
		rects := randRects(src, tc.n, tc.spread)
		ix := FromRects(rects, 1<<22)
		if ix == nil {
			t.Fatalf("%s: FromRects returned nil", tc.name)
		}
		if frozen(ix) != tc.frozen {
			t.Fatalf("%s: Frozen()=%v, want %v", tc.name, frozen(ix), tc.frozen)
		}
		for _, p := range probes(src, rects, tc.spread) {
			if got, want := ix.Contains(p[0], p[1]), inRects(rects, p[0], p[1]); got != want {
				t.Fatalf("%s: Contains(%d,%d)=%v, linear scan %v", tc.name, p[0], p[1], got, want)
			}
		}
	}
}

func TestFromCellsMatchesPoints(t *testing.T) {
	for _, spread := range []int64{10, 3000, 1 << 30} {
		src := rng.New(uint64(spread))
		set := map[cell]bool{}
		var cells [][2]int64
		for i := 0; i < 300; i++ {
			c := [2]int64{src.Intn(2*spread+1) - spread, src.Intn(2*spread+1) - spread}
			cells = append(cells, c, c) // duplicates are harmless
			set[cell{c[0], c[1]}] = true
		}
		ix := FromCells(cells)
		if ix.Count() != int64(len(set)) {
			t.Fatalf("spread %d: Count=%d, want %d", spread, ix.Count(), len(set))
		}
		if want := spread < 4096; frozen(ix) != want {
			t.Fatalf("spread %d: Frozen()=%v, want %v", spread, frozen(ix), want)
		}
		qs := probes(src, nil, spread)
		for _, c := range cells {
			qs = append(qs, c, [2]int64{c[0] + 1, c[1]}, [2]int64{c[0], c[1] - 1})
		}
		for _, q := range qs {
			if got := ix.Contains(q[0], q[1]); got != set[cell{q[0], q[1]}] {
				t.Fatalf("spread %d: Contains(%d,%d)=%v, want %v", spread, q[0], q[1], got, !got)
			}
		}
	}
	if ix := FromCells(nil); frozen(ix) || ix.Contains(0, 0) {
		t.Fatal("empty FromCells: want no table and no members")
	}
}

func TestMutationAfterFreeze(t *testing.T) {
	ix := FromCells([][2]int64{{0, 0}, {100, -100}})
	if !frozen(ix) {
		t.Fatal("FromCells did not freeze")
	}
	// A visit into an existing tile keeps the table, which shares the
	// tile's bitmap and so sees the new cell.
	ix.Visit(1, 0)
	if !frozen(ix) || !ix.Contains(1, 0) {
		t.Fatalf("visit into an existing tile: Frozen()=%v Contains=%v", frozen(ix), ix.Contains(1, 0))
	}
	// A visit that creates a tile drops the table; Contains stays exact.
	ix.Visit(-5000, 7000)
	if frozen(ix) {
		t.Fatal("tile creation kept the frozen table")
	}
	for _, c := range []cell{{0, 0}, {100, -100}, {1, 0}, {-5000, 7000}} {
		if !ix.Contains(c.x, c.y) {
			t.Fatalf("lost (%d,%d) after dropping the table", c.x, c.y)
		}
	}
	if ix.Contains(2, 0) || ix.Contains(-5000, 7001) {
		t.Fatal("non-member reported after dropping the table")
	}
	// Merge drops the table too and keeps membership exact.
	m := FromCells([][2]int64{{3, 3}})
	other := NewIndex()
	other.Visit(9000, 9000)
	other.Visit(3, 4)
	if added, _ := m.Merge(other, -1); added != 2 || frozen(m) {
		t.Fatalf("merge after freeze: added=%d Frozen()=%v", added, frozen(m))
	}
	for _, c := range []cell{{3, 3}, {3, 4}, {9000, 9000}} {
		if !m.Contains(c.x, c.y) {
			t.Fatalf("merge after freeze lost (%d,%d)", c.x, c.y)
		}
	}
}

// cursorVisit is the documented Cursor idiom.
func cursorVisit(cur *Cursor, x, y int64) bool {
	fresh, ok := cur.Visit(x, y)
	if !ok {
		cur.Enter(x, y)
		fresh, _ = cur.Visit(x, y)
	}
	return fresh
}

func TestCursorMatchesVisit(t *testing.T) {
	for _, teleport := range []int64{0, 100, 1 << 40} {
		src := rng.New(uint64(teleport) + 11)
		want, got := NewIndex(), NewIndex()
		cells := randWalkCells(src, 5000, teleport)
		for start := 0; start < len(cells); start += 700 {
			end := min(start+700, len(cells))
			cur := got.Cursor()
			var fresh int64
			for _, c := range cells[start:end] {
				f := cursorVisit(&cur, c.x, c.y)
				if f != want.Visit(c.x, c.y) {
					t.Fatalf("teleport=%d: cursor and Visit disagree at (%d,%d)", teleport, c.x, c.y)
				}
				if f {
					fresh++
				}
			}
			if n := cur.Flush(); n != fresh || got.Count() != want.Count() {
				t.Fatalf("teleport=%d: Flush=%d (fresh %d), Count=%d, want %d", teleport, n, fresh, got.Count(), want.Count())
			}
		}
		if got, want := boundsOf(got), boundsOf(want); got != want {
			t.Fatalf("teleport=%d: cursor bounds %+v, Visit bounds %+v", teleport, got, want)
		}
	}
}

func frozen(ix *Index) bool { return ix.Table() != nil }
