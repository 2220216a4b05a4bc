package spatial

import (
	"encoding/binary"
	"testing"
)

// FuzzSparseVisit drives an Index against a map oracle with a byte-coded
// op stream: each 5-byte record is 1 op byte + 4 coordinate bytes. Ops
// cycle through visit, contains, visit-into-scratch, merge, freeze (the
// index is rebuilt by FromCells, so later ops query and mutate a frozen
// index) and a Cursor run of cells along a row, so the fuzzer explores
// promotion, tile reuse, merge alignment, the frozen table and its drop
// on tile creation.
func FuzzSparseVisit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 255, 255, 255, 255})
	// A promotion chain: visits at growing offsets.
	chain := []byte{}
	for i := 0; i < 8; i++ {
		chain = append(chain, 0, byte(i), byte(i*i), byte(1<<i), 0)
	}
	f.Add(chain)
	// Merge stress: interleave visits with merge ops.
	f.Add([]byte{0, 10, 0, 0, 0, 2, 0, 0, 0, 0, 0, 20, 0, 0, 1, 2, 0, 0, 0, 0})
	// Freeze, then query, visit a far tile, query, run a cursor.
	f.Add([]byte{0, 5, 0, 0, 0, 0, 200, 9, 0, 0, 4, 0, 0, 0, 0, 1, 5, 0, 0, 0,
		0, 0, 0, 0, 64, 1, 200, 9, 0, 0, 5, 60, 0, 0, 0, 1, 61, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix := NewIndex()
		scratch := NewIndex()
		oracle := map[cell]bool{}
		scratchOracle := map[cell]bool{}
		for len(data) >= 5 {
			op := data[0] % 6
			// Spread 32-bit payloads over ±2^26 so runs cross many tiles
			// and promotion levels.
			raw := binary.LittleEndian.Uint32(data[1:5])
			x := int64(int32(raw))>>5 + int64(int8(data[1]))
			y := int64(int32(raw<<13))>>10 + int64(int8(data[2]))
			data = data[5:]
			switch op {
			case 0:
				fresh := ix.Visit(x, y)
				if fresh != !oracle[cell{x, y}] {
					t.Fatalf("Visit(%d,%d) fresh=%v, oracle disagrees", x, y, fresh)
				}
				oracle[cell{x, y}] = true
			case 1:
				if ix.Contains(x, y) != oracle[cell{x, y}] {
					t.Fatalf("Contains(%d,%d) disagrees with oracle", x, y)
				}
			case 2:
				scratch.Visit(x, y)
				scratchOracle[cell{x, y}] = true
			case 3:
				added, _ := ix.Merge(scratch, -1)
				wantAdded := 0
				for c := range scratchOracle {
					if !oracle[c] {
						wantAdded++
					}
					oracle[c] = true
				}
				if added != int64(wantAdded) {
					t.Fatalf("Merge added %d, oracle says %d", added, wantAdded)
				}
			case 4:
				cells := make([][2]int64, 0, len(oracle))
				for c := range oracle {
					cells = append(cells, [2]int64{c.x, c.y})
				}
				ix = FromCells(cells)
			case 5:
				// A row of raw%130 cells from (x, y): crosses up to three
				// tiles, revisiting cells already present.
				cur := ix.Cursor()
				var fresh int64
				for i := int64(0); i < int64(raw%130); i++ {
					c := cell{x + i, y}
					if cursorVisit(&cur, c.x, c.y) != !oracle[c] {
						t.Fatalf("cursor Visit(%d,%d) disagrees with oracle", c.x, c.y)
					}
					if !oracle[c] {
						fresh++
					}
					oracle[c] = true
				}
				if n := cur.Flush(); n != fresh {
					t.Fatalf("cursor Flush=%d, oracle says %d fresh", n, fresh)
				}
			}
		}
		if ix.Count() != int64(len(oracle)) {
			t.Fatalf("Count=%d, oracle has %d", ix.Count(), len(oracle))
		}
		for c := range oracle {
			if !ix.Contains(c.x, c.y) {
				t.Fatalf("lost cell (%d,%d)", c.x, c.y)
			}
		}
	})
}
