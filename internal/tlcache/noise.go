package tlcache

import (
	"math"

	"tlc/internal/ecc"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// Noise models transmission-line bit errors and the paper's end-to-end
// ECC response (Section 4): every response word carries a (72,64) SEC-DED
// code generated and checked at the central controller. Single-bit upsets
// are corrected in place; a detected double-bit error forces the
// controller to re-request the block — a full extra round trip.
//
// Errors are injected deterministically from a hash of (block, cycle), so
// noisy runs stay reproducible.
type Noise struct {
	// BitErrorRate is the per-bit flip probability per line traversal.
	// The paper's conservative 40%-of-cycle setup/hold margins target
	// effectively zero; the knob exists to quantify what residual noise
	// would cost.
	BitErrorRate float64

	// pSingle and pDouble are per-72-bit-word outcome probabilities,
	// derived once from the rate.
	pSingle, pDouble float64
}

// SetNoise enables noise injection on the cache's response paths.
func (c *Cache) SetNoise(bitErrorRate float64) {
	if c.noise == nil {
		// Registered only with noise on, so noiseless runs keep their
		// exact metric set.
		c.reg.CounterFunc("ecc.retry_exhausted", func() uint64 { return c.ECCRetryExhausted })
	}
	n := &Noise{BitErrorRate: bitErrorRate}
	bits := 64.0 + ecc.CheckBits
	// Binomial word outcomes: exactly one flip, and two-or-more flips.
	p := bitErrorRate
	p0 := math.Pow(1-p, bits)
	p1 := bits * p * math.Pow(1-p, bits-1)
	n.pSingle = p1
	n.pDouble = 1 - p0 - p1
	c.noise = n
}

// wordFate classifies one coded word's traversal deterministically.
func (n *Noise) wordFate(b mem.Block, at sim.Time, word int) ecc.Result {
	h := uint64(b)*0x9e3779b97f4a7c15 ^ uint64(at)*0xbf58476d1ce4e5b9 ^ uint64(word)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	r := float64(h>>11) / float64(1<<53)
	switch {
	case r < n.pDouble:
		return ecc.Uncorrectable
	case r < n.pDouble+n.pSingle:
		return ecc.Corrected
	default:
		return ecc.OK
	}
}

// responseFate classifies a whole data response of the given payload bits:
// the worst word's fate, plus the count of corrected words.
func (n *Noise) responseFate(b mem.Block, at sim.Time, payloadBits int) (ecc.Result, int) {
	words := (payloadBits + 63) / 64
	if words < 1 {
		words = 1
	}
	worst := ecc.OK
	corrected := 0
	for w := 0; w < words; w++ {
		switch n.wordFate(b, at, w) {
		case ecc.Uncorrectable:
			worst = ecc.Uncorrectable
		case ecc.Corrected:
			corrected++
			if worst == ecc.OK {
				worst = ecc.Corrected
			}
		}
	}
	return worst, corrected
}
