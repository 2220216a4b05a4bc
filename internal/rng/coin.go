package rng

import "fmt"

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

// HeadsRun flips the composite coin(k, ℓ) until it shows tails or has
// shown max heads, and returns the number of heads and whether the run
// ended on tails. It is a run of Composite(k) calls in one loop: it draws
// exactly the same words and counts exactly the same flips, so a caller
// may split a directed walk (Algorithm 3) into runs of any lengths without
// changing the stream. max == 0 flips nothing; k == 0 and ℓ == 0 show
// tails at once, after the k base flips Composite would count.
func (c *Coin) HeadsRun(k uint, max uint64) (n uint64, tails bool) {
	switch {
	case max == 0:
		return 0, false
	case k == 0 || c.ell == 0:
		c.flips += uint64(k)
		return 0, true
	}
	// The state lives in a local for the loop: one base flip per word, a
	// composite heads at the first base heads, tails after k base tails.
	src, mask := *c.src, c.mask
	flips := c.flips
	for n < max {
		i := uint(1)
		for src.Uint64()&mask == 0 {
			if i == k {
				tails = true
				break
			}
			i++
		}
		flips += uint64(i)
		if tails {
			break
		}
		n++
	}
	*c.src = src
	c.flips = flips
	return n, tails
}

// Fair reports a fair coin flip (probability 1/2 each way), drawn from the
// same underlying source and counted as one flip. The paper's algorithms
// use C_{1/2} for direction choices.
func (c *Coin) Fair() bool {
	c.flips++
	return c.src.Uint64()&1 == 1
}
