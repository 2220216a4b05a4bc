package rng

import (
	"math"
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

func TestHeadsRunMatchesComposite(t *testing.T) {
	for _, ell := range []uint{0, 1, 2, 5, MaxEll} {
		for k := uint(0); k <= 8; k++ {
			for _, max := range []uint64{0, 1, 2, 7, 1000, math.MaxUint64} {
				if max == math.MaxUint64 && k*ell > 12 {
					continue // tails has probability 2^-kℓ: an uncapped run takes too long
				}
				seed := uint64(ell)<<32 | uint64(k)<<16 | max&0xffff
				got, want := MustCoin(ell, New(seed)), MustCoin(ell, New(seed))
				for rep := 0; rep < 20; rep++ {
					gn, gt := got.HeadsRun(k, max)
					wn, wt := compositeRun(want, k, max)
					if gn != wn || gt != wt {
						t.Fatalf("ℓ=%d k=%d max=%d rep %d: HeadsRun = (%d, %v), Composite loop = (%d, %v)",
							ell, k, max, rep, gn, gt, wn, wt)
					}
					if got.Flips() != want.Flips() {
						t.Fatalf("ℓ=%d k=%d max=%d rep %d: flips %d, want %d",
							ell, k, max, rep, got.Flips(), want.Flips())
					}
				}
				if g, w := got.src.Uint64(), want.src.Uint64(); g != w {
					t.Errorf("ℓ=%d k=%d max=%d: source state diverged (next word %#x, want %#x)", ell, k, max, g, w)
				}
			}
		}
	}
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
