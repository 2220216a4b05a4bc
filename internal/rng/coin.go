package rng

import (
	"fmt"
	"math/bits"
)

// MaxEll is the largest supported coin precision: probabilities as small as
// 1/2^60 can be drawn from a single 64-bit word with no bias.
const MaxEll = 60

// Coin is the paper's primitive randomness source: a biased coin C_{1/2^ℓ}
// that shows *tails* with probability exactly 1/2^ℓ (and heads otherwise),
// matching the convention of Algorithm 1 ("coin C_p shows tails with
// probability p"). All agent randomness is drawn through coins so that an
// algorithm's smallest probability — the ℓ of χ(A) = b + log ℓ — is explicit
// and auditable.
type Coin struct {
	ell  uint
	mask uint64
	src  *Source

	flips uint64 // number of flips drawn, for randomness accounting
}

// NewCoin returns a coin with tails-probability 1/2^ℓ drawing from src.
// ℓ must be in [0, MaxEll]; ℓ = 0 is the always-tails coin.
func NewCoin(ell uint, src *Source) (*Coin, error) {
	if ell > MaxEll {
		return nil, fmt.Errorf("rng: coin precision ℓ=%d exceeds maximum %d", ell, MaxEll)
	}
	var mask uint64
	if ell > 0 {
		mask = (uint64(1) << ell) - 1
	}
	return &Coin{ell: ell, mask: mask, src: src}, nil
}

// MustCoin is NewCoin for statically valid ℓ; it panics on error and is
// intended for package-internal construction with constant ℓ.
func MustCoin(ell uint, src *Source) *Coin {
	c, err := NewCoin(ell, src)
	if err != nil {
		panic(err)
	}
	return c
}

// Ell returns the coin's precision ℓ.
func (c *Coin) Ell() uint { return c.ell }

// Tails flips the coin and reports whether it shows tails (probability
// 1/2^ℓ).
func (c *Coin) Tails() bool {
	c.flips++
	if c.ell == 0 {
		return true
	}
	return c.src.Uint64()&c.mask == 0
}

// Heads flips the coin and reports whether it shows heads (probability
// 1 - 1/2^ℓ).
func (c *Coin) Heads() bool {
	return !c.Tails()
}

// Flips returns the number of coin flips drawn so far.
func (c *Coin) Flips() uint64 { return c.flips }

// Composite implements the paper's Algorithm 2, coin(k, ℓ): a derived coin
// that shows tails with probability 1/2^{kℓ}, built from k+1 independent
// flips of the base C_{1/2^ℓ} coin (the pseudocode's loop "for i = 0..k"
// draws until a base coin shows tails — the derived coin is tails only if
// every draw is tails; we implement the equivalent product form with exactly
// k flips, which realizes tails-probability (1/2^ℓ)^k = 1/2^{kℓ}).
// Per Lemma 3.6 the loop counter costs ⌈log k⌉ bits of agent memory; that
// accounting lives in the search package's χ audit.
func (c *Coin) Composite(k uint) bool {
	if k == 0 {
		return true
	}
	for i := uint(0); i < k; i++ {
		if c.Heads() {
			return false // some base flip showed heads -> composite heads
		}
	}
	return true
}

// headsBlock is the number of words HeadsRun draws per block. A block
// holds at most headsBlock composite heads, so a run with at least that
// many heads left to its cap cannot overrun the cap inside a block.
const headsBlock = 16

// HeadsRun flips the composite coin(k, ℓ) until it shows tails or has
// shown max heads, and returns the number of heads and whether the run
// ended on tails. It is a run of Composite(k) calls in one loop: it draws
// exactly the same words and counts exactly the same flips, so a caller
// may split a directed walk (Algorithm 3) into runs of any lengths without
// changing the stream. max == 0 flips nothing; k == 0 and ℓ == 0 show
// tails at once, after the k base flips Composite would count.
//
// While at least headsBlock heads remain before max (and k ≤ 64 −
// headsBlock), it draws headsBlock words at a time and finds the stop
// without a branch per flip: a mask of the block's base heads, prefixed by
// the base tails already drawn in the current composite flip, gives the
// first run of k base tails by a shift-AND. On tails it rewinds the source
// to the block's start and re-draws exactly the words the per-flip loop
// would have consumed. The rest of the run, and every run with a smaller
// cap, takes the per-flip loop.
func (c *Coin) HeadsRun(k uint, max uint64) (n uint64, tails bool) {
	switch {
	case max == 0:
		return 0, false
	case k == 0 || c.ell == 0:
		c.flips += uint64(k)
		return 0, true
	}
	// zr counts the base tails already drawn in the current composite
	// flip: the block path may stop inside one. It is below k, and the
	// block path's k ≤ 64 − headsBlock keeps zr + headsBlock < 64.
	var zr uint
	if max >= headsBlock && k <= 64-headsBlock {
		if n, zr, tails = c.headsBlocks(k, max); tails {
			return n, true
		}
	}
	// The state lives in four locals stepped through next, which keeps it
	// in registers: one base flip per word, a composite heads at the first
	// base heads, tails after k base tails.
	s0, s1, s2, s3 := c.src.s0, c.src.s1, c.src.s2, c.src.s3
	mask, flips := c.mask, c.flips
	for n < max {
		i := zr + 1
		for {
			var w uint64
			w, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			if w&mask != 0 {
				break
			}
			if i == k {
				tails = true
				break
			}
			i++
		}
		flips += uint64(i - zr)
		zr = 0
		if tails {
			break
		}
		n++
	}
	c.src.s0, c.src.s1, c.src.s2, c.src.s3 = s0, s1, s2, s3
	c.flips = flips
	return n, tails
}

// headsBlocks is HeadsRun's block path: it draws the run headsBlock words
// at a time while at least headsBlock heads remain before max. It returns
// the heads drawn, whether the run ended on tails and, if it did not, the
// base tails already drawn in the current composite flip.
func (c *Coin) headsBlocks(k uint, max uint64) (n uint64, zr uint, tails bool) {
	src, mask := c.src, c.mask
	for max-n >= headsBlock {
		// The block draws from locals stepped through next; src keeps
		// the block's start.
		s0, s1, s2, s3 := src.s0, src.s1, src.s2, src.s3
		var h uint64 // bit j: word j of the block is a base heads
		for j := uint(0); j < headsBlock; j++ {
			var w uint64
			w, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			w &= mask
			h |= (w | -w) >> 63 << j
		}
		// Bit i of r: position i is a base tails, where positions below zr
		// are the current flip's earlier tails and zr+j is word j. After
		// the shift-AND, bit i is set where k tails start; the first such
		// start follows a heads (or is the flip's start), so it is where
		// the per-flip loop shows composite tails.
		r := (^h&(1<<headsBlock-1))<<zr | (1<<zr - 1)
		for run := uint(1); run < k; {
			sh := min(run, k-run)
			r &= r >> sh
			run += sh
		}
		if r == 0 {
			n += uint64(bits.OnesCount64(h))
			c.flips += headsBlock
			zr += headsBlock - uint(bits.Len64(h<<zr))
			src.s0, src.s1, src.s2, src.s3 = s0, s1, s2, s3
			continue
		}
		used := uint(bits.TrailingZeros64(r)) + k - zr // words up to the k-th tails
		n += uint64(bits.OnesCount64(h & (1<<used - 1)))
		c.flips += uint64(used)
		s0, s1, s2, s3 = src.s0, src.s1, src.s2, src.s3
		for ; used > 0; used-- {
			_, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		}
		src.s0, src.s1, src.s2, src.s3 = s0, s1, s2, s3
		return n, 0, true
	}
	return n, zr, false
}

// Fair reports a fair coin flip (probability 1/2 each way), drawn from the
// same underlying source and counted as one flip. The paper's algorithms
// use C_{1/2} for direction choices.
func (c *Coin) Fair() bool {
	c.flips++
	return c.src.Uint64()&1 == 1
}
