package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestNewCoinValidation(t *testing.T) {
	src := New(1)
	if _, err := NewCoin(MaxEll, src); err != nil {
		t.Errorf("NewCoin(MaxEll) unexpected error: %v", err)
	}
	if _, err := NewCoin(MaxEll+1, src); err == nil {
		t.Error("NewCoin(MaxEll+1) should fail")
	}
}

func TestMustCoinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCoin with bad ℓ should panic")
		}
	}()
	MustCoin(MaxEll+1, New(1))
}

func TestCoinZeroEllAlwaysTails(t *testing.T) {
	c := MustCoin(0, New(1))
	for i := 0; i < 100; i++ {
		if !c.Tails() {
			t.Fatal("ℓ=0 coin must always show tails")
		}
	}
}

// tailsFraction estimates P[tails] of the composite coin(k, ℓ).
func tailsFraction(t *testing.T, ell, k uint, draws int) float64 {
	t.Helper()
	c := MustCoin(ell, New(uint64(ell)*1000+uint64(k)))
	tails := 0
	for i := 0; i < draws; i++ {
		if c.Composite(k) {
			tails++
		}
	}
	return float64(tails) / float64(draws)
}

func TestCoinTailsProbability(t *testing.T) {
	// Direct coin: tails with probability 1/2^ℓ.
	for _, ell := range []uint{1, 2, 3, 5} {
		c := MustCoin(ell, New(uint64(ell)))
		const draws = 200000
		tails := 0
		for i := 0; i < draws; i++ {
			if c.Tails() {
				tails++
			}
		}
		p := 1 / math.Pow(2, float64(ell))
		got := float64(tails) / draws
		sigma := math.Sqrt(p * (1 - p) / draws)
		if math.Abs(got-p) > 5*sigma {
			t.Errorf("ℓ=%d: tails fraction %v, want %v ± %v", ell, got, p, 5*sigma)
		}
	}
}

func TestCompositeCoinLemma36(t *testing.T) {
	// Lemma 3.6: coin(k, ℓ) shows tails with probability 1/2^{kℓ}.
	tests := []struct{ ell, k uint }{
		{1, 1}, {1, 2}, {1, 4}, {2, 2}, {3, 2}, {2, 4},
	}
	for _, tt := range tests {
		const draws = 400000
		p := 1 / math.Pow(2, float64(tt.k*tt.ell))
		got := tailsFraction(t, tt.ell, tt.k, draws)
		sigma := math.Sqrt(p * (1 - p) / draws)
		if math.Abs(got-p) > 5*sigma {
			t.Errorf("coin(k=%d, ℓ=%d): tails fraction %v, want %v ± %v",
				tt.k, tt.ell, got, p, 5*sigma)
		}
	}
}

func TestCompositeZeroK(t *testing.T) {
	c := MustCoin(3, New(4))
	if !c.Composite(0) {
		t.Error("coin(0, ℓ) should be the always-tails coin")
	}
}

func TestGeometricMean(t *testing.T) {
	// An uncapped heads run of coin(k, ℓ) is geometric with mean 2^{kℓ} - 1.
	tests := []struct {
		ell, k uint
	}{
		{1, 3}, {2, 2}, {3, 1},
	}
	for _, tt := range tests {
		c := MustCoin(tt.ell, New(uint64(tt.k)*77+uint64(tt.ell)))
		const draws = 50000
		var sum float64
		for i := 0; i < draws; i++ {
			n, tails := c.HeadsRun(tt.k, math.MaxUint64)
			if !tails {
				t.Fatalf("uncapped HeadsRun(k=%d) ended without tails after %d heads", tt.k, n)
			}
			sum += float64(n)
		}
		mean := sum / draws
		want := math.Pow(2, float64(tt.k*tt.ell)) - 1
		// Std of geometric ~ 2^{kℓ}; mean of draws has std want/sqrt(draws).
		tol := 6 * math.Pow(2, float64(tt.k*tt.ell)) / math.Sqrt(draws)
		if math.Abs(mean-want) > tol {
			t.Errorf("HeadsRun(k=%d, ℓ=%d) mean = %v, want %v ± %v",
				tt.k, tt.ell, mean, want, tol)
		}
	}
}

func TestGeometricLimit(t *testing.T) {
	c := MustCoin(MaxEll, New(2)) // tails almost never: unbounded walk without cap
	const limit = 1000
	for i := 0; i < 10; i++ {
		if n, tails := c.HeadsRun(1, limit); n != limit || tails {
			t.Fatalf("HeadsRun(1, %d) = (%d, %v), want the cap (%d, false)", limit, n, tails, limit)
		}
	}
}

// compositeRun is HeadsRun's reference: the same run as a loop of
// Composite calls.
func compositeRun(c *Coin, k uint, max uint64) (n uint64, tails bool) {
	for n < max {
		if c.Composite(k) {
			return n, true
		}
		n++
	}
	return n, false
}

// checkHeadsRuns draws the runs capped at maxes[0], maxes[1], ... twice
// from one seed's stream, after its first skip words, with HeadsRun and
// with the Composite loop, and fails at the first call where the heads,
// the tails outcome, the flip count or the source state differ.
func checkHeadsRuns(t *testing.T, ell, k uint, maxes []uint64, seed uint64, skip int) {
	t.Helper()
	src := New(seed)
	for i := 0; i < skip; i++ {
		src.Uint64()
	}
	twin := *src
	got, want := MustCoin(ell, src), MustCoin(ell, &twin)
	for i, max := range maxes {
		gn, gt := got.HeadsRun(k, max)
		wn, wt := compositeRun(want, k, max)
		if gn != wn || gt != wt {
			t.Fatalf("ℓ=%d k=%d seed %d call %d (max %d): HeadsRun = (%d, %v), Composite loop = (%d, %v)",
				ell, k, seed, i, max, gn, gt, wn, wt)
		}
		if got.Flips() != want.Flips() {
			t.Fatalf("ℓ=%d k=%d seed %d call %d (max %d): flips %d, want %d",
				ell, k, seed, i, max, got.Flips(), want.Flips())
		}
		if g, w := *got.src, *want.src; g != w {
			t.Fatalf("ℓ=%d k=%d seed %d call %d (max %d): source state diverged (next word %#x, want %#x)",
				ell, k, seed, i, max, g.Uint64(), w.Uint64())
		}
	}
}

// TestHeadsMaskDecidesTheFlip pins the fact HeadsRun's block and per-flip
// loops rely on: at every precision, a word's output has a set bit under
// the coin's mask exactly when the state's s1·5 has one under
// headsMask(mask), and step moves the state as next does. A change to
// next's scrambler fails here by case. The crafted cases set s1·5 to a
// chosen value (0xcccc…cccd is 5's inverse mod 2⁶⁴), so both outcomes
// occur at every ℓ, including the ℓ near MaxEll where a seeded stream
// almost never shows tails.
func TestHeadsMaskDecidesTheFlip(t *testing.T) {
	const inv5 = 0xcccccccccccccccd
	cases := []struct {
		name string
		s1   func(x, rm uint64) uint64 // the state's s1 from a random x
	}{
		{"seeded stream", func(x, _ uint64) uint64 { return x }},
		{"s1·5 clear under the mask", func(x, rm uint64) uint64 { return (x &^ rm) * inv5 }},
		{"s1·5 one bit under the mask", func(x, rm uint64) uint64 { return (x&^rm | rm&-rm) * inv5 }},
		{"s1·5 set under the whole mask", func(x, rm uint64) uint64 { return (x | rm) * inv5 }},
		{"s1 zero", func(_, _ uint64) uint64 { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for ell := uint(0); ell <= MaxEll; ell++ {
				mask := MustCoin(ell, New(1)).mask
				rm := headsMask(mask)
				gen := New(uint64(ell) + 1)
				for i := 0; i < 256; i++ {
					src := Source{gen.Uint64(), tc.s1(gen.Uint64(), rm), gen.Uint64(), gen.Uint64()}
					s0, s1, s2, s3 := step(src.s0, src.s1, src.s2, src.s3)
					want := Source{s0, s1, s2, s3}
					heads := src.s1*5&rm != 0
					if out := src.Uint64(); out&mask != 0 != heads {
						t.Fatalf("ℓ=%d s1=%#x: output %#x under mask %#x is heads %v, s1·5 under %#x says %v",
							ell, src.s1, out, mask, out&mask != 0, rm, heads)
					}
					if src != want {
						t.Fatalf("ℓ=%d: step moved the state to %+v, next to %+v", ell, want, src)
					}
				}
			}
		})
	}
}

func TestHeadsRunMatchesComposite(t *testing.T) {
	// k runs over the small composite sizes and the edges of the block
	// path: a block's width, and the widest k it takes (64 − headsBlock).
	ks := []uint{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 47, 48, 49, 60, 64, 65}
	// The caps straddle the block width, so runs take the per-flip loop,
	// one block, or blocks followed by the per-flip loop.
	caps := []uint64{0, 1, 2, 7, headsBlock - 1, headsBlock, headsBlock + 1, 2*headsBlock + 3, 1000, math.MaxUint64}
	for _, ell := range []uint{0, 1, 2, 5, MaxEll} {
		for _, k := range ks {
			for _, max := range caps {
				if max == math.MaxUint64 && k*ell > 12 {
					continue // tails has probability 2^-kℓ: an uncapped run takes too long
				}
				seed := uint64(ell)<<32 | uint64(k)<<16 | max&0xffff
				checkHeadsRuns(t, ell, k, slices.Repeat([]uint64{max}, 20), seed, 0)
			}
		}
	}
	// Calls that mix small and large caps: a composite flip straddles block
	// boundaries, and a run hands off from blocks to the per-flip loop in
	// the middle of a composite flip.
	mixed := []uint64{headsBlock + 1, 1, 2*headsBlock + 3, headsBlock - 1, 40, headsBlock, 3, 1000, 2, 4 * headsBlock}
	for _, ell := range []uint{1, 2, 5} {
		for _, k := range ks {
			for seed := uint64(0); seed < 8; seed++ {
				checkHeadsRuns(t, ell, k, slices.Repeat(mixed, 4), seed<<8|uint64(k), 0)
			}
		}
	}
	// A block of base tails only carries zr across the whole block, on
	// top of any tails before it. At ℓ = 1 that takes a stretch of words
	// with a zero low bit: find the first stretch of headsBlock+2 in a
	// stream (about 2^19 words in, after a heads). Runs start at it, so
	// the first block is all tails, and headsBlock−1 words before it, so
	// the first block ends in one tails, the second is all tails and,
	// at k = headsBlock+2, the flip shows tails on the stretch's last word.
	const stretch = headsBlock + 2
	probe, end := New(7), 0
	for zeros := 0; zeros < stretch; end++ {
		if probe.Uint64()&1 == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	for _, skip := range []int{end - stretch, end - stretch - (headsBlock - 1)} {
		for _, k := range []uint{headsBlock + 1, stretch, 20, 33, 48} {
			checkHeadsRuns(t, 1, k, []uint64{1000, 40, headsBlock + 1, 1000}, 7, skip)
			checkHeadsRuns(t, 1, k, []uint64{2*headsBlock + 3, 1000}, 7, skip)
		}
	}
}

// FuzzHeadsRunMatchesComposite holds HeadsRun to the Composite loop on
// generated coin precisions, composite sizes, sequences of caps (one byte
// each; 255 is uncapped where tails is likely enough) and seeds.
func FuzzHeadsRunMatchesComposite(f *testing.F) {
	f.Add(uint8(1), uint8(5), []byte{35, 1, 17, 16, 15, 35, 35, 35, 35}, uint64(9))
	f.Add(uint8(1), uint8(5), []byte{35, 1, 17, 255, 16, 15}, uint64(1))
	f.Add(uint8(1), uint8(16), []byte{200, 40, 16}, uint64(2))
	f.Add(uint8(2), uint8(48), []byte{100, 49, 3}, uint64(3))
	f.Add(uint8(1), uint8(49), []byte{64, 17}, uint64(4))
	f.Add(uint8(0), uint8(7), []byte{0, 1, 255}, uint64(5))
	ells := []uint{0, 1, 2, 5, MaxEll}
	f.Fuzz(func(t *testing.T, ellSel, k uint8, caps []byte, seed uint64) {
		ell, kk := ells[int(ellSel)%len(ells)], uint(k%70)
		maxes := make([]uint64, 0, 64)
		for _, b := range caps[:min(len(caps), 64)] {
			max := uint64(b)
			if b == 255 && kk*ell <= 12 {
				max = math.MaxUint64
			}
			maxes = append(maxes, max)
		}
		checkHeadsRuns(t, ell, kk, maxes, seed, 0)
	})
}

func TestHeadsRunEdgeCases(t *testing.T) {
	c := MustCoin(3, New(5))
	if n, tails := c.HeadsRun(4, 0); n != 0 || tails || c.Flips() != 0 {
		t.Errorf("max 0: (%d, %v) after %d flips, want (0, false) after none", n, tails, c.Flips())
	}
	if n, tails := c.HeadsRun(0, 10); n != 0 || !tails || c.Flips() != 0 {
		t.Errorf("k 0: (%d, %v) after %d flips, want (0, true) after none", n, tails, c.Flips())
	}
	z := MustCoin(0, New(5))
	before := *z.src
	if n, tails := z.HeadsRun(6, 10); n != 0 || !tails || z.Flips() != 6 {
		t.Errorf("ℓ 0: (%d, %v) after %d flips, want (0, true) after 6", n, tails, z.Flips())
	}
	if *z.src != before {
		t.Error("ℓ 0 coin drew from its source")
	}
}

func TestFairBalance(t *testing.T) {
	c := MustCoin(4, New(31))
	const draws = 100000
	heads := 0
	for i := 0; i < draws; i++ {
		if c.Fair() {
			heads++
		}
	}
	if math.Abs(float64(heads)-draws/2) > 4*math.Sqrt(draws/4) {
		t.Errorf("Fair heads = %d of %d", heads, draws)
	}
}

func TestFlipAccounting(t *testing.T) {
	c := MustCoin(2, New(8))
	c.Tails()
	c.Heads()
	c.Fair()
	if c.Flips() != 3 {
		t.Errorf("Flips = %d, want 3", c.Flips())
	}
	before := c.Flips()
	c.Composite(5)
	if c.Flips() == before {
		t.Error("Composite should consume flips")
	}
	if c.Flips() > before+5 {
		t.Errorf("Composite(5) consumed %d flips, want at most 5", c.Flips()-before)
	}
}

func TestCoinEll(t *testing.T) {
	if got := MustCoin(7, New(1)).Ell(); got != 7 {
		t.Errorf("Ell = %d, want 7", got)
	}
}

// BenchmarkHeadsRun times one HeadsRun call per op: max = 1 is the
// one-flip path a walk takes where every move needs its own checks, and
// an uncapped run is a whole directed walk of Algorithm 3 in open space
// (2^{kℓ} − 1 heads on average; k = 6 at ℓ = 1 is E1's D = 64 cell). The
// heads/op metric turns ns/op into a cost per move, and flips/op, one
// generator word each, into a cost per word.
func BenchmarkHeadsRun(b *testing.B) {
	for _, max := range []uint64{1, math.MaxUint64} {
		for _, ell := range []uint{1, 2} {
			for _, k := range []uint{5, 6, 7} {
				name := fmt.Sprintf("max=%d/ell=%d/k=%d", max, ell, k)
				if max == math.MaxUint64 {
					name = fmt.Sprintf("max=inf/ell=%d/k=%d", ell, k)
				}
				b.Run(name, func(b *testing.B) {
					c := MustCoin(ell, New(1))
					var heads uint64
					for b.Loop() {
						n, _ := c.HeadsRun(k, max)
						heads += n
					}
					b.ReportMetric(float64(heads)/float64(b.N), "heads/op")
					b.ReportMetric(float64(c.Flips())/float64(b.N), "flips/op")
				})
			}
		}
	}
}
