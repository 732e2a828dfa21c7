package workload

import "math/bits"

// prng is the generator's random source: xoshiro256** seeded through a
// splitmix64 expansion. It replaces math/rand, whose generator hides its
// state — the warm-state checkpointing in internal/snapshot must capture
// and restore the stream position exactly, so the source's entire state
// lives in four exported-able words (see RNGState).
//
// The draw methods mirror the math/rand surface the generator uses
// (Float64, Intn, Int63n); streams are deterministic per seed but differ
// from math/rand's for the same seed.
type prng struct {
	s [4]uint64
}

// newPRNG seeds a generator. Distinct seeds give decorrelated streams; the
// splitmix64 expansion guarantees a nonzero state even for seed 0.
func newPRNG(seed int64) *prng {
	p := &prng{}
	sm := uint64(seed)
	for i := range p.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p.s[i] = z ^ (z >> 31)
	}
	return p
}

// reseed resets the state as if freshly constructed with seed.
func (p *prng) reseed(seed int64) { *p = *newPRNG(seed) }

// state returns the complete source state.
func (p *prng) state() [4]uint64 { return p.s }

// setState restores a state captured by state().
func (p *prng) setState(s [4]uint64) { p.s = s }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// xoDraw is one xoshiro256** step on register-resident state: it returns
// the drawn value and the successor state. The fused generator kernel
// (fill) carries the whole stream position through locals, so after
// inlining each draw is pure ALU work — no loads or stores of the
// generator's state. The value and transition are bit-identical to Uint64.
func xoDraw(s0, s1, s2, s3 uint64) (v, r0, r1, r2, r3 uint64) {
	v = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return v, s0, s1, s2, s3
}

// xoAdvance is xoDraw without the output scrambler, for draws whose values
// are never observed (the ** output only shapes the value; the state
// transition is independent of it). Bit-identical to drawing and discarding.
func xoAdvance(s0, s1, s2, s3 uint64) (r0, r1, r2, r3 uint64) {
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return s0, s1, s2, s3
}

// Uint64 draws the next value (xoshiro256**).
func (p *prng) Uint64() uint64 {
	result := rotl(p.s[1]*5, 7) * 9
	t := p.s[1] << 17
	p.s[2] ^= p.s[0]
	p.s[3] ^= p.s[1]
	p.s[1] ^= p.s[2]
	p.s[0] ^= p.s[3]
	p.s[2] ^= t
	p.s[3] = rotl(p.s[3], 45)
	return result
}

// Float64 draws uniformly from [0,1) with 53 bits of precision.
func (p *prng) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Int63n draws uniformly from [0,n). n must be positive. The modulo bias is
// below 2^-40 for every range the generator uses (footprints are far below
// 2^40 blocks), which is negligible next to the synthetic specs' own
// calibration tolerances.
func (p *prng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("workload: Int63n with non-positive bound")
	}
	return int64(p.Uint64() % uint64(n))
}

// Intn draws uniformly from [0,n). n must be positive.
func (p *prng) Intn(n int) int {
	return int(p.Int63n(int64(n)))
}

// invDiv is a precomputed divisor for division-free exact remainders: the
// generator's region sizes are fixed at construction, so the 64-bit
// division Int63n pays per draw can be replaced with a multiply-high and a
// bounded correction. mod(v) returns exactly v % n.
type invDiv struct {
	n uint64
	// m approximates 2^64/n from below; mulhi(v, m) is then within 2 of
	// v/n, and the correction loop settles the exact remainder.
	m uint64
}

// newInvDiv precomputes the reciprocal for a positive divisor.
func newInvDiv(n uint64) invDiv {
	return invDiv{n: n, m: ^uint64(0) / n}
}

// mod returns v % d.n, bit-identical to the hardware remainder. The
// reciprocal underestimates the quotient by at most 2, so two conditional
// subtracts settle it exactly; straight-line code keeps mod inlinable into
// the batch kernels.
func (d invDiv) mod(v uint64) uint64 {
	hi, _ := bits.Mul64(v, d.m)
	r := v - hi*d.n
	if r >= d.n {
		r -= d.n
	}
	if r >= d.n {
		r -= d.n
	}
	return r
}

// f64Threshold converts a Float64 probability compare into an integer
// compare on the raw draw: Float64() < p tests (u>>11)/2^53 < p, and with a
// 53-bit integer left side that is exactly u>>11 < ceil(p·2^53). The scale
// by 2^53 is a power-of-two exponent shift, so p·2^53 is computed without
// rounding and the returned threshold reproduces the float compare
// bit-identically for every draw.
func f64Threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	scaled := p * (1 << 53)
	t := uint64(scaled)
	if float64(t) < scaled {
		t++ // ceil: scaled was not an integer
	}
	return t
}
