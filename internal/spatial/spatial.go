// Package spatial provides a sparse hierarchical index over the cells of
// the unbounded integer lattice Z². It is the storage layer behind the
// engines' unbounded-arena structures: visit sets whose memory scales with
// the cells actually touched (not with arena area), obstacle membership in
// O(depth) instead of O(#rectangles), and nearest-point queries over large
// target sets.
//
// # Layout
//
// Cells are grouped into 64×64-cell leaf tiles (one 512-byte bitmap each,
// word = row-in-tile, bit = column-in-tile), allocated on first touch. Tiles
// hang off a fixed-fanout tree: every internal node has 4×4 children, each
// covering a quarter of the parent's side, so a node at height h spans
// 64·4^h cells per side. The tree starts as a single leaf and is promoted on
// overflow: when a visit lands outside the root's span, the root is wrapped
// in a new parent (whose other 15 children start empty) until it covers the
// point. Lookup cost is O(height), and the height tracks the log of the
// spread of the data, not of the coordinate space.
//
// Coordinates are re-biased so that the origin sits on a tile whose base-4
// digit string is all 2s — maximally far from every block boundary at every
// level of the tree. Origin-centered workloads (every experiment in this
// repository) therefore stay in a root of height ⌈log₄(spread/64)⌉+O(1)
// instead of degenerating to the full 29-level tower that an origin on a
// power-of-two boundary would force.
//
// Indexes built in one go and then only read — FromRects for obstacle
// worlds, FromCells for large target sets — also carry a frozen tile table:
// a row-major array of leaf pointers over the tile bounds, built by the
// constructor, so Contains costs one bounds check and two loads instead of
// a root-to-leaf descent. Creating a tile later drops the table.
//
// An Index is not safe for concurrent mutation. Read-only queries
// (Contains, Each*, Nearest) never mutate the structure — including the
// internal last-tile write cache — so a quiesced Index may be shared by any
// number of readers; the sim package relies on this for obstacle and target
// membership.
package spatial

import "math/bits"

// Tile geometry. A leaf tile covers TileSize×TileSize cells.
const (
	// TileShift is log₂ of the tile side.
	TileShift = 6
	// TileSize is the side length of a leaf tile, in cells.
	TileSize = 1 << TileShift
	tileMask = TileSize - 1
)

// Tree fanout: every internal node has nodeFan×nodeFan children.
const (
	nodeShift = 2
	nodeFan   = 1 << nodeShift
	nodeMask  = nodeFan - 1
)

// tileBias is the biased tile coordinate of the origin's tile: base-4
// digits all 2 across the 29 tile levels (58 bits), so the origin is at
// least span/3 away from the nearest block boundary at every tree level.
const tileBias uint64 = 0x2AAAAAAAAAAAAAA

// cellBias re-biases a signed cell coordinate into unsigned tree space,
// placing the origin at the center of tile (tileBias, tileBias).
// Coordinates with |x| < 2⁶¹ are representable; the engines never leave
// that range.
const cellBias uint64 = tileBias<<TileShift + TileSize/2

// maxLevel is the tree height that covers the whole supported coordinate
// space; promotion never exceeds it.
const maxLevel = 29

// node is one tree node: exactly one of kids (internal) or bits (leaf) is
// non-nil.
type node struct {
	kids *[nodeFan * nodeFan]*node
	bits *[TileSize]uint64
}

func newLeaf() *node     { return &node{bits: new([TileSize]uint64)} }
func newInternal() *node { return &node{kids: new([nodeFan * nodeFan]*node)} }

// Index is a sparse set of lattice cells, stored as the hierarchical tile
// tree described in the package comment. The zero value is an empty set
// ready for use.
type Index struct {
	root  *node
	level uint   // tree height: root spans 4^level tiles per side
	rootX uint64 // root block coords: biased tile coords >> (2*level)
	rootY uint64

	count int64

	// Bounds of the allocated tiles in biased tile coords, for Nearest's
	// ring search termination and the frozen table. Valid only when
	// hasBounds is set.
	hasBounds    bool
	minTX, maxTX uint64
	minTY, maxTY uint64

	// table is the frozen tile table (see freeze), nil when absent. Only
	// constructors build it; creating a tile drops it.
	table *Table

	// Last-leaf write cache: agents visit runs of adjacent cells, so
	// consecutive Visits overwhelmingly land in one tile. Only mutating
	// calls touch it, keeping read-only queries safe for concurrent use.
	lastTX, lastTY uint64
	lastLeaf       *node
}

// NewIndex returns an empty index. (The zero value works too; the
// constructor exists for symmetry with the rest of the repository.)
func NewIndex() *Index { return &Index{} }

// Count returns the number of distinct cells in the set.
func (ix *Index) Count() int64 { return ix.count }

// bias converts a signed cell coordinate pair into biased tile and
// in-tile coordinates.
func biasSplit(x, y int64) (utx, uty, cx, cy uint64) {
	ux := uint64(x) + cellBias
	uy := uint64(y) + cellBias
	return ux >> TileShift, uy >> TileShift, ux & tileMask, uy & tileMask
}

// unbias converts a biased cell coordinate back to the signed lattice.
func unbias(u uint64) int64 { return int64(u - cellBias) }

// Visit inserts cell (x, y) and reports whether it was newly inserted.
func (ix *Index) Visit(x, y int64) bool {
	utx, uty, cx, cy := biasSplit(x, y)
	leaf := ix.lastLeaf
	if leaf == nil || utx != ix.lastTX || uty != ix.lastTY {
		leaf = ix.leaf(utx, uty, true)
		ix.lastTX, ix.lastTY = utx, uty
		ix.lastLeaf = leaf
	}
	mask := uint64(1) << cx
	if leaf.bits[cy]&mask != 0 {
		return false
	}
	leaf.bits[cy] |= mask
	ix.count++
	return true
}

// Cursor inserts a batch of cells into an Index with the current leaf tile
// held in its own fields, so a run of visits to one tile makes no call:
// Visit is a tile compare and a bit test, small enough to inline. When a
// cell lies outside the current tile, Visit reports ok = false and the
// caller Enters the cell's tile and visits again:
//
//	fresh, ok := cur.Visit(x, y)
//	if !ok {
//		cur.Enter(x, y)
//		fresh, _ = cur.Visit(x, y)
//	}
//
// The index's Count lags the cursor's fresh cells until Flush. A Cursor
// must not outlive its batch: any other mutation of the index in between
// invalidates its count.
type Cursor struct {
	ix     *Index
	tx, ty uint64 // biased coords of leaf; noTile before the first Enter
	leaf   *[TileSize]uint64
	added  int64
}

// noTile is a biased tile coordinate no cell maps to (tile coordinates
// stay below 2⁵⁸), so a fresh cursor holds no tile.
const noTile = ^uint64(0)

// Cursor returns a batch inserter over ix, holding no tile yet.
func (ix *Index) Cursor() Cursor { return Cursor{ix: ix, tx: noTile, ty: noTile} }

// Visit inserts cell (x, y) when it lies in the cursor's current tile and
// reports whether it was newly inserted; ok is false (and nothing is
// inserted) when the cell lies in another tile.
func (c *Cursor) Visit(x, y int64) (fresh, ok bool) {
	ux, uy := uint64(x)+cellBias, uint64(y)+cellBias
	if ux>>TileShift != c.tx || uy>>TileShift != c.ty {
		return false, false
	}
	mask := uint64(1) << (ux & tileMask)
	w := &c.leaf[uy&tileMask]
	if *w&mask != 0 {
		return false, true
	}
	*w |= mask
	c.added++
	return true, true
}

// Enter moves the cursor to the tile holding cell (x, y), creating the tile
// if needed.
func (c *Cursor) Enter(x, y int64) {
	utx, uty, _, _ := biasSplit(x, y)
	c.leaf = c.ix.leaf(utx, uty, true).bits
	c.tx, c.ty = utx, uty
}

// Flush adds the cells inserted since the last Flush to the index's count
// and returns how many there were.
func (c *Cursor) Flush() int64 {
	n := c.added
	c.ix.count += n
	c.added = 0
	return n
}

// Table is an index's frozen tile table: a read-only, row-major array of
// leaf bitmaps over the index's tile bounds. Its Contains is a bounds check
// and two loads, small enough to inline into a kernel's inner loop.
type Table struct {
	minTX, minTY uint64
	w, h         uint64
	tiles        []*[TileSize]uint64 // tile (minTX+i, minTY+j) at j*w+i; nil when absent
}

// Contains reports whether cell (x, y) is in the set the table was frozen
// from. Cells outside the table's bounds are not members.
func (t *Table) Contains(x, y int64) bool {
	ux, uy := uint64(x)+cellBias, uint64(y)+cellBias
	dx, dy := ux>>TileShift-t.minTX, uy>>TileShift-t.minTY
	if dx >= t.w || dy >= t.h {
		return false
	}
	leaf := t.tiles[dy*t.w+dx]
	return leaf != nil && leaf[uy&tileMask]&(uint64(1)<<(ux&tileMask)) != 0
}

// Table returns the index's frozen tile table, or nil when it has none
// (the index was not built by a freezing constructor, its bounds exceed
// frozenMaxTiles, or a tile was created since).
func (ix *Index) Table() *Table { return ix.table }

// Contains reports whether cell (x, y) is in the set. It never mutates the
// index, so it is safe to call concurrently on a quiesced index. It uses
// the frozen table when there is one and descends the tree otherwise.
func (ix *Index) Contains(x, y int64) bool {
	if ix.table != nil {
		return ix.table.Contains(x, y)
	}
	utx, uty, cx, cy := biasSplit(x, y)
	leaf := ix.lookup(utx, uty)
	return leaf != nil && leaf.bits[cy]&(uint64(1)<<cx) != 0
}

// frozenMaxTiles caps the frozen tile table at 2¹⁴ entries (128 KB of
// pointers, a 128×128-tile square: ±4096 cells around a centered set).
// Sets spread wider keep the tree descent, whose memory tracks the tiles
// actually allocated.
const frozenMaxTiles = 1 << 14

// freeze builds the frozen tile table over the current tile bounds, unless
// the bounds span more than frozenMaxTiles tiles. Only constructors call
// it, once the set is complete: building it lazily on a query would make
// a read mutate the index, and read-only queries must stay safe for
// concurrent readers.
func (ix *Index) freeze() {
	if !ix.hasBounds {
		return
	}
	w, h := ix.maxTX-ix.minTX+1, ix.maxTY-ix.minTY+1
	if w > frozenMaxTiles || h > frozenMaxTiles || w*h > frozenMaxTiles {
		return
	}
	t := &Table{minTX: ix.minTX, minTY: ix.minTY, w: w, h: h, tiles: make([]*[TileSize]uint64, w*h)}
	for j := uint64(0); j < h; j++ {
		for i := uint64(0); i < w; i++ {
			if n := ix.lookup(ix.minTX+i, ix.minTY+j); n != nil {
				t.tiles[j*w+i] = n.bits
			}
		}
	}
	ix.table = t
}

// covers reports whether the root's span includes tile (utx, uty).
func (ix *Index) covers(utx, uty uint64) bool {
	return utx>>(nodeShift*ix.level) == ix.rootX && uty>>(nodeShift*ix.level) == ix.rootY
}

// lookup returns the leaf holding tile (utx, uty), or nil. Pure: no cache
// update, no allocation.
func (ix *Index) lookup(utx, uty uint64) *node {
	if ix.root == nil || !ix.covers(utx, uty) {
		return nil
	}
	n := ix.root
	for l := ix.level; l > 0; l-- {
		shift := nodeShift * (l - 1)
		idx := (uty>>shift&nodeMask)<<nodeShift | utx>>shift&nodeMask
		n = n.kids[idx]
		if n == nil {
			return nil
		}
	}
	return n
}

// leaf returns the leaf for tile (utx, uty), creating the path to it (and
// promoting the root on overflow) when create is set.
func (ix *Index) leaf(utx, uty uint64, create bool) *node {
	if ix.root == nil {
		if !create {
			return nil
		}
		ix.root = newLeaf()
		ix.level = 0
		ix.rootX, ix.rootY = utx, uty
		ix.boundsAdd(utx, uty)
		return ix.root
	}
	if !create {
		return ix.lookup(utx, uty)
	}
	// Promote on overflow: wrap the root until its span covers the tile.
	for !ix.covers(utx, uty) {
		if ix.level >= maxLevel {
			panic("spatial: coordinate outside the supported range")
		}
		parent := newInternal()
		idx := (ix.rootY&nodeMask)<<nodeShift | ix.rootX&nodeMask
		parent.kids[idx] = ix.root
		ix.root = parent
		ix.rootX >>= nodeShift
		ix.rootY >>= nodeShift
		ix.level++
	}
	n := ix.root
	for l := ix.level; l > 0; l-- {
		shift := nodeShift * (l - 1)
		idx := (uty>>shift&nodeMask)<<nodeShift | utx>>shift&nodeMask
		child := n.kids[idx]
		if child == nil {
			if l == 1 {
				child = newLeaf()
				ix.table = nil // the frozen table has no slot for it
			} else {
				child = newInternal()
			}
			n.kids[idx] = child
		}
		n = child
	}
	ix.boundsAdd(utx, uty)
	return n
}

// boundsAdd widens the tile bounding box to include (utx, uty).
func (ix *Index) boundsAdd(utx, uty uint64) {
	if !ix.hasBounds {
		ix.hasBounds = true
		ix.minTX, ix.maxTX = utx, utx
		ix.minTY, ix.maxTY = uty, uty
		return
	}
	if utx < ix.minTX {
		ix.minTX = utx
	}
	if utx > ix.maxTX {
		ix.maxTX = utx
	}
	if uty < ix.minTY {
		ix.minTY = uty
	}
	if uty > ix.maxTY {
		ix.maxTY = uty
	}
}

// Level returns the current tree height (0 = a single leaf tile). Exposed
// for the promotion-invariant tests and for capacity diagnostics.
func (ix *Index) Level() uint { return ix.level }

// Each calls fn for every cell in the set. Iteration order is the tree's
// DFS order and is deterministic for a given insertion history, but callers
// must not rely on it.
func (ix *Index) Each(fn func(x, y int64)) {
	if ix.root == nil {
		return
	}
	eachNode(ix.root, ix.level, ix.rootX, ix.rootY, fn)
}

func eachNode(n *node, level uint, bx, by uint64, fn func(x, y int64)) {
	if n.bits != nil {
		baseX := unbias(bx << TileShift)
		baseY := unbias(by << TileShift)
		for row, w := range n.bits {
			y := baseY + int64(row)
			for w != 0 {
				col := bits.TrailingZeros64(w)
				w &= w - 1
				fn(baseX+int64(col), y)
			}
		}
		return
	}
	for i, child := range n.kids {
		if child != nil {
			cx := bx<<nodeShift | uint64(i&nodeMask)
			cy := by<<nodeShift | uint64(i>>nodeShift)
			eachNode(child, level-1, cx, cy, fn)
		}
	}
}

// EachInBall calls fn for every cell (x, y) in the set with max-norm at
// most r. Subtrees entirely outside the ball are pruned, so the cost is
// proportional to the tiles intersecting the ball, not to the whole set.
func (ix *Index) EachInBall(r int64, fn func(x, y int64)) {
	if ix.root == nil || r < 0 {
		return
	}
	eachBall(ix.root, ix.level, ix.rootX, ix.rootY, r, fn)
}

// blockRange returns the signed cell-coordinate range [lo, hi] covered by
// block (bx, by) at the given level (same span on both axes, returned for
// the x axis; shift by for y).
func blockSpan(b uint64, level uint) (lo, hi int64) {
	size := int64(TileSize) << (nodeShift * level)
	lo = unbias(b << (TileShift + nodeShift*level))
	return lo, lo + size - 1
}

func eachBall(n *node, level uint, bx, by uint64, r int64, fn func(x, y int64)) {
	loX, hiX := blockSpan(bx, level)
	loY, hiY := blockSpan(by, level)
	if loX > r || hiX < -r || loY > r || hiY < -r {
		return
	}
	inside := loX >= -r && hiX <= r && loY >= -r && hiY <= r
	if n.bits != nil {
		baseX, baseY := loX, loY
		for row, w := range n.bits {
			y := baseY + int64(row)
			if !inside && (y > r || y < -r) {
				continue
			}
			for w != 0 {
				col := bits.TrailingZeros64(w)
				w &= w - 1
				x := baseX + int64(col)
				if inside || (x >= -r && x <= r) {
					fn(x, y)
				}
			}
		}
		return
	}
	for i, child := range n.kids {
		if child != nil {
			cx := bx<<nodeShift | uint64(i&nodeMask)
			cy := by<<nodeShift | uint64(i>>nodeShift)
			eachBall(child, level-1, cx, cy, r, fn)
		}
	}
}

// Merge inserts every cell of other into ix by structural descent with
// word-OR at aligned leaf tiles — no per-cell hashing or probing. It
// returns the number of newly inserted cells, and, when ballR >= 0, how
// many of those have max-norm at most ballR (tiles entirely inside or
// outside the ball are classified once; only boundary tiles pay a per-bit
// norm check). Merging does not modify other, and drops ix's frozen table.
func (ix *Index) Merge(other *Index, ballR int64) (added, addedInBall int64) {
	if other == nil || other.root == nil {
		return 0, 0
	}
	ix.table = nil
	if ix.root == nil {
		ix.level = other.level
		ix.rootX, ix.rootY = other.rootX, other.rootY
		if other.root.bits != nil {
			ix.root = newLeaf()
		} else {
			ix.root = newInternal()
		}
	}
	// Promote until other's root block nests inside ours.
	for ix.level < other.level ||
		other.rootX>>(nodeShift*(ix.level-other.level)) != ix.rootX ||
		other.rootY>>(nodeShift*(ix.level-other.level)) != ix.rootY {
		if ix.level >= maxLevel {
			panic("spatial: merge outside the supported range")
		}
		parent := newInternal()
		idx := (ix.rootY&nodeMask)<<nodeShift | ix.rootX&nodeMask
		parent.kids[idx] = ix.root
		ix.root = parent
		ix.rootX >>= nodeShift
		ix.rootY >>= nodeShift
		ix.level++
	}
	// Descend to the node aligned with other's root, creating the path.
	n := ix.root
	for l := ix.level; l > other.level; l-- {
		shift := nodeShift * (l - 1 - other.level)
		idx := (other.rootY>>shift&nodeMask)<<nodeShift | other.rootX>>shift&nodeMask
		child := n.kids[idx]
		if child == nil {
			if l-1 == other.level && other.root.bits != nil {
				child = newLeaf()
			} else {
				child = newInternal()
			}
			n.kids[idx] = child
		}
		n = child
	}
	added, addedInBall = mergeNode(n, other.root, other.level, other.rootX, other.rootY, ballR)
	ix.count += added
	if other.hasBounds {
		ix.boundsAdd(other.minTX, other.minTY)
		ix.boundsAdd(other.maxTX, other.maxTY)
	}
	return added, addedInBall
}

func mergeNode(dst, src *node, level uint, bx, by uint64, ballR int64) (added, addedInBall int64) {
	if src.bits != nil {
		// Classify the whole tile against the ball once.
		const (
			ballSkip = iota // ballR < 0: caller does not track the ball
			ballIn          // tile entirely inside the ball
			ballOut         // tile entirely outside the ball
			ballEdge        // tile crosses the ball boundary
		)
		class := ballSkip
		var loX, hiX, loY, hiY int64
		if ballR >= 0 {
			loX, hiX = blockSpan(bx, 0)
			loY, hiY = blockSpan(by, 0)
			switch {
			case loX >= -ballR && hiX <= ballR && loY >= -ballR && hiY <= ballR:
				class = ballIn
			case loX > ballR || hiX < -ballR || loY > ballR || hiY < -ballR:
				class = ballOut
			default:
				class = ballEdge
			}
		}
		for w, sw := range src.bits {
			nw := sw &^ dst.bits[w]
			if nw == 0 {
				continue
			}
			dst.bits[w] |= nw
			cnt := int64(bits.OnesCount64(nw))
			added += cnt
			switch class {
			case ballIn:
				addedInBall += cnt
			case ballEdge:
				y := loY + int64(w)
				if y > ballR || y < -ballR {
					break
				}
				for nw != 0 {
					col := bits.TrailingZeros64(nw)
					nw &= nw - 1
					if x := loX + int64(col); x >= -ballR && x <= ballR {
						addedInBall++
					}
				}
			}
		}
		return added, addedInBall
	}
	for i, schild := range src.kids {
		if schild == nil {
			continue
		}
		dchild := dst.kids[i]
		if dchild == nil {
			if schild.bits != nil {
				dchild = newLeaf()
			} else {
				dchild = newInternal()
			}
			dst.kids[i] = dchild
		}
		cx := bx<<nodeShift | uint64(i&nodeMask)
		cy := by<<nodeShift | uint64(i>>nodeShift)
		a, b := mergeNode(dchild, schild, level-1, cx, cy, ballR)
		added += a
		addedInBall += b
	}
	return added, addedInBall
}

// Nearest returns the cell of the set closest to (x, y) in max-norm,
// breaking distance ties by smaller y, then smaller x. ok is false when the
// set is empty. The search expands tile rings outward from the query tile
// and stops as soon as no unexplored ring can beat the best candidate, so
// the cost is proportional to the tile distance to the nearest cell, capped
// by the set's bounding box.
func (ix *Index) Nearest(x, y int64) (nx, ny int64, ok bool) {
	if ix.count == 0 {
		return 0, 0, false
	}
	utx, uty, _, _ := biasSplit(x, y)
	// Maximum useful tile ring: Chebyshev tile distance from the query
	// tile to the far corners of the bounding box.
	maxRho := uint64(0)
	for _, d := range [4]uint64{
		tileDist(utx, ix.minTX), tileDist(utx, ix.maxTX),
		tileDist(uty, ix.minTY), tileDist(uty, ix.maxTY),
	} {
		if d > maxRho {
			maxRho = d
		}
	}
	bestDist := int64(-1)
	scan := func(leaf *node, ltx, lty uint64) {
		if leaf == nil {
			return
		}
		baseX := unbias(ltx << TileShift)
		baseY := unbias(lty << TileShift)
		for row, w := range leaf.bits {
			cy := baseY + int64(row)
			for w != 0 {
				col := bits.TrailingZeros64(w)
				w &= w - 1
				cx := baseX + int64(col)
				d := chebDist(cx, cy, x, y)
				if bestDist < 0 || d < bestDist ||
					(d == bestDist && (cy < ny || (cy == ny && cx < nx))) {
					bestDist, nx, ny = d, cx, cy
				}
			}
		}
	}
	for rho := uint64(0); rho <= maxRho; rho++ {
		// Cells in a ring-ρ tile are at distance ≥ 64(ρ−1)+1; once the
		// best candidate beats that, no further ring can win.
		if bestDist >= 0 && rho >= 1 && bestDist < int64(rho-1)*TileSize+1 {
			break
		}
		if rho == 0 {
			scan(ix.lookup(utx, uty), utx, uty)
			continue
		}
		lo := int64(rho)
		for d := -lo; d <= lo; d++ {
			tx := uint64(int64(utx) + d)
			scan(ix.lookup(tx, uty-rho), tx, uty-rho)
			scan(ix.lookup(tx, uty+rho), tx, uty+rho)
			if d > -lo && d < lo {
				ty := uint64(int64(uty) + d)
				scan(ix.lookup(utx-rho, ty), utx-rho, ty)
				scan(ix.lookup(utx+rho, ty), utx+rho, ty)
			}
		}
	}
	return nx, ny, true
}

// tileDist is the absolute difference of two biased tile coordinates.
func tileDist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// chebDist is the max-norm distance between two cells.
func chebDist(x1, y1, x2, y2 int64) int64 {
	dx, dy := x1-x2, y1-y2
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// FromRects rasterizes a set of inclusive rectangles [x0,x1]×[y0,y1] into
// a frozen index, for constant-time point membership over many rectangles
// (the Obstacles world). It returns nil when the total rasterized area
// exceeds maxCells (callers then keep their linear scan): the index trades
// memory proportional to covered cells for constant-time membership, which
// is the wrong trade for a handful of enormous rectangles.
func FromRects(rects [][4]int64, maxCells int64) *Index {
	var area int64
	for _, r := range rects {
		x0, y0, x1, y1 := r[0], r[1], r[2], r[3]
		if x1 < x0 || y1 < y0 {
			return nil // malformed; let the caller's validation report it
		}
		w, h := x1-x0+1, y1-y0+1
		if w > maxCells || h > maxCells || area+w*h > maxCells {
			return nil
		}
		area += w * h
	}
	ix := NewIndex()
	for _, r := range rects {
		for y := r[1]; y <= r[3]; y++ {
			for x := r[0]; x <= r[2]; x++ {
				ix.Visit(x, y)
			}
		}
	}
	ix.freeze()
	return ix
}

// FromCells builds a frozen index holding the given cells (duplicates are
// harmless): the constructor for sets built once and then only queried,
// such as large target sets.
func FromCells(cells [][2]int64) *Index {
	ix := NewIndex()
	for _, c := range cells {
		ix.Visit(c[0], c[1])
	}
	ix.freeze()
	return ix
}
