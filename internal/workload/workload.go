// Package workload generates the synthetic instruction traces standing in
// for the paper's twelve benchmarks (Tables 4-6): four SPECint 2000
// (bzip, gcc, mcf, perl), four SPECfp 2000 (equake, lucas, swim, applu),
// and four commercial workloads (apache, zeus, SPECjbb, OLTP).
//
// Each benchmark is a Spec: a memory footprint, a hot working set with
// optional skew, a streaming fraction, a store fraction, a memory-op
// density, and a dependent-load probability. The specs are calibrated so
// the address-stream statistics that drive every result in the paper's
// Section 6 — L2 request rate, L2 miss rate, footprint relative to the
// 16 MB cache and to DNUCA's 2 MB of close banks, and streaming-versus-
// reuse behaviour — land near Table 6.
package workload

import (
	"fmt"
	"math/bits"

	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
)

// Region sizes are expressed in 64-byte blocks.
const blocksPerMB = 1024 * 1024 / mem.BlockBytes

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	// Name is the benchmark label used in every table.
	Name string
	// FootprintMB is the total data footprint.
	FootprintMB float64
	// L1MB is a tiny very-hot region that the 64 KB L1 mostly absorbs;
	// L1Frac of memory references go to it. It controls the L2 request
	// rate (Table 6, column 2).
	L1MB   float64
	L1Frac float64
	// HotMB and HotFrac describe the L2-scale hot working set.
	HotMB   float64
	HotFrac float64
	// HotSkew > 0 applies nested 80/20 skew within the hot region
	// (levels of recursion); 0 is uniform.
	HotSkew int
	// StreamFrac of references walk the cold region sequentially —
	// the SPECfp streaming behaviour. Streams have word-level spatial
	// locality: StreamRepeat consecutive stream references touch the
	// same 64-byte block (default 8, i.e. 8-byte strides), so the L1
	// absorbs 7 of every 8 stream references just as on real hardware.
	StreamFrac   float64
	StreamRepeat int
	// ColdSkew > 0 applies nested 80/20 skew within the cold region
	// (static popularity skew; no temporal drift).
	ColdSkew int
	// ColdWindowMB switches the cold region to a sliding working-set
	// model: references fall uniformly in a window of this size, and
	// with probability ColdTurnover a reference admits a fresh block
	// (advancing the window) instead — a compulsory miss. Fresh blocks
	// are re-referenced within the window shortly after admission, the
	// temporal clustering real commercial workloads exhibit and the
	// behaviour DNUCA's insert-far/promote-on-reuse placement learns.
	ColdWindowMB float64
	// ColdTurnover is the fresh-block probability per cold reference;
	// the cold miss rate is ColdFrac * MemFrac * ColdTurnover.
	ColdTurnover float64
	// RecentFrac of references revisit a block streamed a short while
	// ago (beyond L1 reach, within L2 reach) — the short-reuse traffic
	// that gives the streaming SPECfp benchmarks their small hit rates,
	// hitting DNUCA's *far* banks (Table 6: swim close-hit 0.7% with a
	// 17% hit rate, promotes/inserts 0.15).
	RecentFrac float64
	// StoreFrac of memory operations are stores.
	StoreFrac float64
	// MemFrac of instructions are memory operations.
	MemFrac float64
	// DepFrac is the probability a load depends on the previous load
	// (pointer chasing serializes mcf; streaming code barely does).
	DepFrac float64
	// SerialFrac is the probability a non-memory instruction depends on
	// its predecessor — the ILP limiter that keeps base IPC realistic.
	// Zero selects the default of 0.35.
	SerialFrac float64
	// MispredictEvery is the mean instructions between branch
	// mispredictions (each costs a 30-stage pipeline refill). Zero
	// selects the default of 250.
	MispredictEvery int
}

// Generator produces the instruction stream for a Spec.
type Generator struct {
	spec Spec
	rng  *prng

	l1Blocks, hotBlocks, coldBlocks uint64
	l1Base, hotBase, coldBase       uint64
	streamPtr                       uint64
	streamLeft                      int
	windowHead                      uint64
	reverse                         map[mem.Block]uint64

	// Precomputed reciprocals for the fixed-size region draws: every
	// region size is pinned at construction, so the modulo each draw pays
	// becomes a multiply (invDiv). Values are bit-identical to Int63n.
	l1Div, coldDiv, windowDiv, recentDiv invDiv

	// memCredit implements the deterministic memory-op density.
	memCredit float64

	// counters tallies emitted instructions by class and referenced blocks
	// by footprint region. They are observation-only: not part of State
	// (the stream is unaffected by them) and reset at the start of every
	// timed interval so a restored checkpoint counts only what it runs.
	counters struct {
		memOps, stores, mispredicts                       uint64
		l1Refs, hotRefs, streamRefs, recentRefs, coldRefs uint64
	}
}

// New builds a deterministic generator for the spec with the given seed.
func New(spec Spec, seed int64) *Generator {
	if spec.FootprintMB <= 0 {
		panic(fmt.Sprintf("workload: %q has no footprint", spec.Name))
	}
	l1 := uint64(spec.L1MB * blocksPerMB)
	hot := uint64(spec.HotMB * blocksPerMB)
	total := uint64(spec.FootprintMB * blocksPerMB)
	if l1+hot > total {
		panic(fmt.Sprintf("workload: %q regions exceed footprint", spec.Name))
	}
	cold := total - l1 - hot
	if cold == 0 {
		cold = 1
	}
	g := &Generator{
		spec:       spec,
		rng:        newPRNG(seed),
		l1Blocks:   max64(l1, 1),
		hotBlocks:  max64(hot, 1),
		coldBlocks: cold,
		l1Base:     0,
		hotBase:    l1,
		coldBase:   l1 + hot,
	}
	g.l1Div = newInvDiv(g.l1Blocks)
	g.coldDiv = newInvDiv(g.coldBlocks)
	window := uint64(spec.ColdWindowMB * blocksPerMB)
	if window == 0 || window > g.coldBlocks {
		window = g.coldBlocks
	}
	g.windowDiv = newInvDiv(window)
	g.recentDiv = newInvDiv(15 * 1024)
	return g
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Spec reports the generator's spec.
func (g *Generator) Spec() Spec { return g.spec }

// State is the generator's complete stream position: RNG state plus the
// phase variables (stream pointer, window head, spatial-repeat countdown,
// memory-op credit). Capturing it after warm-up and restoring it later
// resumes the identical instruction stream — the workload half of a
// warm-state checkpoint. All fields are exported for gob encoding by the
// on-disk checkpoint store.
type State struct {
	RNG        [4]uint64
	StreamPtr  uint64
	StreamLeft int
	WindowHead uint64
	MemCredit  float64
}

// State captures the generator's stream position.
func (g *Generator) State() State {
	return State{
		RNG:        g.rng.state(),
		StreamPtr:  g.streamPtr,
		StreamLeft: g.streamLeft,
		WindowHead: g.windowHead,
		MemCredit:  g.memCredit,
	}
}

// SetState restores a stream position captured by State on a generator
// built from the same Spec. The subsequent Next sequence is identical to
// the one the captured generator would have produced.
func (g *Generator) SetState(st State) {
	g.rng.setState(st.RNG)
	g.streamPtr = st.StreamPtr
	g.streamLeft = st.StreamLeft
	g.windowHead = st.WindowHead
	g.memCredit = st.MemCredit
}

// ResetCounters zeroes the observation counters. The harness calls this at
// the start of the timed interval so warm-up traffic (or the run that
// produced a restored checkpoint) is excluded.
func (g *Generator) ResetCounters() {
	g.counters = struct {
		memOps, stores, mispredicts                       uint64
		l1Refs, hotRefs, streamRefs, recentRefs, coldRefs uint64
	}{}
}

// RegisterMetrics publishes the generator's instruction-stream counters
// under "workload.".
func (g *Generator) RegisterMetrics(r *metrics.Registry) {
	g.RegisterMetricsPrefixed(r, "")
}

// RegisterMetricsPrefixed publishes the counters under prefix+"workload.";
// CMP runs use a "core.<i>." prefix per core.
func (g *Generator) RegisterMetricsPrefixed(r *metrics.Registry, prefix string) {
	r.CounterFunc(prefix+"workload.mem_ops", func() uint64 { return g.counters.memOps })
	r.CounterFunc(prefix+"workload.stores", func() uint64 { return g.counters.stores })
	r.CounterFunc(prefix+"workload.mispredicts", func() uint64 { return g.counters.mispredicts })
	r.CounterFunc(prefix+"workload.l1_refs", func() uint64 { return g.counters.l1Refs })
	r.CounterFunc(prefix+"workload.hot_refs", func() uint64 { return g.counters.hotRefs })
	r.CounterFunc(prefix+"workload.stream_refs", func() uint64 { return g.counters.streamRefs })
	r.CounterFunc(prefix+"workload.recent_refs", func() uint64 { return g.counters.recentRefs })
	r.CounterFunc(prefix+"workload.cold_refs", func() uint64 { return g.counters.coldRefs })
}

// Reseed replaces the random source with a freshly seeded one while keeping
// the phase variables (stream position, working-set window). A seed sweep
// over the timed interval reseeds after warm-up: every seed then measures
// from the same warmed machine state, isolating seed effects to the
// measured interval itself.
func (g *Generator) Reseed(seed int64) { g.rng.reseed(seed) }

// Next returns the next instruction: the scalar reference NextBatch and
// NextMems are tested against.
func (g *Generator) Next() cpu.Instr {
	g.memCredit += g.spec.MemFrac
	if g.memCredit < 1 {
		in := cpu.Instr{}
		serial := g.spec.SerialFrac
		if serial == 0 {
			serial = 0.35
		}
		if g.rng.Float64() < serial {
			in.Dep = true
		}
		every := g.spec.MispredictEvery
		if every == 0 {
			every = 250
		}
		if g.rng.Intn(every) == 0 {
			in.Mispredict = true
			g.counters.mispredicts++
		}
		return in
	}
	g.memCredit--
	blk := g.nextBlock()
	isStore := g.rng.Float64() < g.spec.StoreFrac
	dep := !isStore && g.rng.Float64() < g.spec.DepFrac
	g.counters.memOps++
	if isStore {
		g.counters.stores++
	}
	return cpu.Instr{IsMem: true, IsStore: isStore, Block: blk, Dep: dep}
}

// NextBatch implements cpu.Source: it fills buf with the identical
// instruction sequence len(buf) Next calls would produce, through the fused
// kernel in full mode. The batched and scalar paths draw from the RNG in
// exactly the same order, so they are interchangeable mid-stream
// (TestNextBatchMatchesNext pins this).
func (g *Generator) NextBatch(buf []cpu.Instr) int {
	if len(buf) == 0 {
		return 0
	}
	g.fill(buf, nil, uint64(len(buf)))
	return len(buf)
}

// NextMems implements cpu.Source, the functional-warm fast path: it
// consumes up to maxInstr instructions, materializing only the memory
// operations into buf and skipping the non-memory runs in between — the
// fused kernel in memory-only mode. The generator's stream position, every
// instruction any later Next or NextBatch call produces, and the observation
// counters stay bit-identical to the scalar path (TestNextMemsMatchesNext
// pins this).
func (g *Generator) NextMems(buf []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	if len(buf) == 0 {
		return 0, 0
	}
	return g.fill(nil, buf, maxInstr)
}

// fill is the fused generator kernel behind both batched protocols. It
// replays Next's draw and branch sequence exactly, but the RNG words, phase
// variables, and credit ride in locals for the whole loop, probability
// compares run in the integer draw domain (f64Threshold), and the region
// draws use the precomputed reciprocals.
//
// With ins non-nil (full mode) it writes all maxInstr instructions to
// ins[:maxInstr], drawing the serial-dep and load-dep values. With ins nil
// (memory-only mode) it writes only memory operations to mems, stops early
// when mems fills, and advances the RNG past the draws whose values a warm
// stream never observes. It returns the MemRefs written and the
// instructions consumed.
func (g *Generator) fill(ins []cpu.Instr, mems []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	full := ins != nil
	every := uint64(g.spec.MispredictEvery)
	if every == 0 {
		every = 250
	}
	// Division-free divisibility test for the mispredict check (Hacker's
	// Delight 10-17): with every = 2^k·m (m odd) and m⁻¹ the odd-part
	// inverse mod 2⁶⁴, v % every == 0 iff rotr(v·m⁻¹, k) ≤ ⌊(2⁶⁴-1)/every⌋
	// — for a divisible v the product is (v/every)·2^k with zero low bits,
	// while any remainder either leaves low bits for the rotation to hoist
	// into the high end or overflows the quotient bound. The inverse
	// converges in five Newton steps. One setup per call, amortized over
	// the batch, replaces a 64-bit division per non-memory instruction with
	// a multiply, a rotate, and one compare whose branch is taken once every
	// `every` instructions — crucially, no 50/50 branch on a random low
	// bit, which a two-part test would hand the branch predictor.
	k := bits.TrailingZeros64(every)
	m := every >> k
	minv := m
	for i := 0; i < 5; i++ {
		minv *= 2 - m*minv
	}
	divThresh := ^uint64(0) / every

	// Integer thresholds for the probability draws. The region cutpoints
	// replicate nextBlock's incremental float sums before scaling, so the
	// partition of the draw space is bit-identical to the float compares.
	t1f := g.spec.L1Frac
	t2f := t1f + g.spec.HotFrac
	t3f := t2f + g.spec.StreamFrac
	t4f := t3f + g.spec.RecentFrac
	t1, t2, t3, t4 := f64Threshold(t1f), f64Threshold(t2f), f64Threshold(t3f), f64Threshold(t4f)
	storeT := f64Threshold(g.spec.StoreFrac)
	turnoverT := f64Threshold(g.spec.ColdTurnover)
	skewT := f64Threshold(0.8)
	serial := g.spec.SerialFrac
	if serial == 0 {
		serial = 0.35
	}
	serialT, depT := f64Threshold(serial), f64Threshold(g.spec.DepFrac)

	frac := g.spec.MemFrac
	repeat := g.spec.StreamRepeat
	if repeat <= 0 {
		repeat = 8
	}
	hotSkew, coldSkew := g.spec.HotSkew, g.spec.ColdSkew
	windowed := g.spec.ColdWindowMB > 0
	l1Base, hotBase, coldBase := g.l1Base, g.hotBase, g.coldBase
	hotBlocks, coldBlocks := g.hotBlocks, g.coldBlocks
	l1Div, coldDiv, windowDiv, recentDiv := g.l1Div, g.coldDiv, g.windowDiv, g.recentDiv
	// One 80/20 narrowing level (the common spec) leaves only two possible
	// final-draw widths — the kept first fifth or its complement — so both
	// reciprocals are computed here (two divisions, amortized over the
	// batch) and the hot-region draw below selects one instead of running a
	// hardware divide with a data-dependent divisor per reference.
	hotCut := hotBlocks / 5
	var hotDivA, hotDivB invDiv
	if hotSkew == 1 && hotBlocks > 5 {
		hotDivA, hotDivB = newInvDiv(hotCut), newInvDiv(hotBlocks-hotCut)
	}
	coldCut := coldBlocks / 5
	var coldDivA, coldDivB invDiv
	if coldSkew == 1 && coldBlocks > 5 {
		coldDivA, coldDivB = newInvDiv(coldCut), newInvDiv(coldBlocks-coldCut)
	}

	// The complete stream position in locals: one load here, one store at
	// the bottom.
	s0, s1, s2, s3 := g.rng.s[0], g.rng.s[1], g.rng.s[2], g.rng.s[3]
	credit := g.memCredit
	ptr, left, head := g.streamPtr, g.streamLeft, g.windowHead
	// The hot counters ride in locals; the per-region tallies (at most one
	// per memory op) update their fields directly to keep the loop's live
	// register set small.
	var mispredicts, memOps, stores uint64

	// The buffer-full check rides on the memory-only path (the only one
	// that can stop early), not the per-instruction loop condition — the
	// skip path's loop overhead is one compare.
	for consumed < maxInstr {
		credit += frac
		consumed++
		var v uint64
		if credit < 1 {
			// Non-memory instruction: the serial-dep draw, then the
			// mispredict draw, which feeds the counter. A warm stream
			// never observes the serial-dep value, so it only advances.
			if !full {
				s0, s1, s2, s3 = xoAdvance(s0, s1, s2, s3)
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				if bits.RotateLeft64(v*minv, -k) <= divThresh {
					mispredicts++
				}
				continue
			}
			v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
			dep := v>>11 < serialT
			v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
			mis := bits.RotateLeft64(v*minv, -k) <= divThresh
			if mis {
				mispredicts++
			}
			ins[consumed-1] = cpu.Instr{Dep: dep, Mispredict: mis}
			continue
		}
		credit--

		// nextBlock, fused. Region select first.
		v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
		u := v >> 11
		var id uint64
		switch {
		case u < t1:
			g.counters.l1Refs++
			v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
			id = l1Base + l1Div.mod(v)
		case u < t2:
			g.counters.hotRefs++
			if hotSkew == 1 && hotBlocks > 5 {
				// Single narrowing level: the keep/descend draw selects
				// between the two precomputed widths with conditional
				// moves — the 80/20 outcome is data-random, so nothing
				// here may branch on it.
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				keep := v>>11 < skewT
				lo, d := uint64(0), hotDivA
				if !keep {
					lo = hotCut
				}
				if !keep {
					d = hotDivB
				}
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				id = hotBase + lo + d.mod(v)
				break
			}
			lo, hi := uint64(0), hotBlocks
			for level := 0; level < hotSkew && hi-lo > 5; level++ {
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				// The 80/20 narrowing draw is data-random; both candidate
				// bounds are computed and one selected, keeping it off the
				// branch predictor.
				cut := lo + (hi-lo)/5
				keep := v>>11 < skewT
				if keep {
					hi = cut
				}
				if !keep {
					lo = cut
				}
			}
			v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
			id = hotBase + lo + v%(hi-lo)
		case u < t3:
			g.counters.streamRefs++
			if left <= 0 {
				// (ptr+1) % coldBlocks: ptr stays < coldBlocks, so the
				// wrap is a single compare.
				ptr++
				if ptr >= coldBlocks {
					ptr = 0
				}
				left = repeat
			}
			left--
			id = coldBase + ptr
		case u < t4:
			g.counters.recentRefs++
			v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
			delta := 1024 + recentDiv.mod(v)
			if delta >= coldBlocks {
				delta = coldBlocks - 1
			}
			idx := ptr + coldBlocks - delta
			if idx >= coldBlocks {
				idx -= coldBlocks
			}
			id = coldBase + idx
		default:
			g.counters.coldRefs++
			switch {
			case windowed:
				// windowRef, fused.
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				if v>>11 < turnoverT {
					head++
					if head >= coldBlocks {
						head = 0
					}
					id = coldBase + head
				} else {
					v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
					back := windowDiv.mod(v)
					idx := head + coldBlocks - back
					if idx >= coldBlocks {
						idx -= coldBlocks
					}
					id = coldBase + idx
				}
			case coldSkew == 1 && coldBlocks > 5:
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				keep := v>>11 < skewT
				lo, d := uint64(0), coldDivA
				if !keep {
					lo = coldCut
				}
				if !keep {
					d = coldDivB
				}
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				id = coldBase + lo + d.mod(v)
			case coldSkew > 0:
				lo, hi := uint64(0), coldBlocks
				for level := 0; level < coldSkew && hi-lo > 5; level++ {
					v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
					cut := lo + (hi-lo)/5
					keep := v>>11 < skewT
					if keep {
						hi = cut
					}
					if !keep {
						lo = cut
					}
				}
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				id = coldBase + lo + v%(hi-lo)
			default:
				v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
				id = coldBase + coldDiv.mod(v)
			}
		}

		v, s0, s1, s2, s3 = xoDraw(s0, s1, s2, s3)
		isStore := v>>11 < storeT
		memOps++
		var s64 uint64
		if isStore {
			s64 = 1
		}
		stores += s64
		// The dep draw Next takes for loads only. The advanced state is
		// computed unconditionally and selected, keeping the randomly-taken
		// store/load split off the branch predictor.
		if full {
			dv, a0, a1, a2, a3 := xoDraw(s0, s1, s2, s3)
			if !isStore {
				s0, s1, s2, s3 = a0, a1, a2, a3
			}
			dep := !isStore && dv>>11 < depT
			ins[consumed-1] = cpu.Instr{IsMem: true, IsStore: isStore, Block: layout(id), Dep: dep}
			continue
		}
		// A warm stream never observes the value: advance only.
		a0, a1, a2, a3 := xoAdvance(s0, s1, s2, s3)
		if !isStore {
			s0, s1, s2, s3 = a0, a1, a2, a3
		}
		mems[n] = cpu.MemRef{Block: layout(id), Store: isStore}
		n++
		if n == len(mems) {
			break
		}
	}

	g.rng.s[0], g.rng.s[1], g.rng.s[2], g.rng.s[3] = s0, s1, s2, s3
	g.memCredit = credit
	g.streamPtr, g.streamLeft, g.windowHead = ptr, left, head
	g.counters.mispredicts += mispredicts
	g.counters.memOps += memOps
	g.counters.stores += stores
	return n, consumed
}

// layout maps the generator's dense internal block ids onto a sparse
// physical address space: ids stay contiguous within 256 KB chunks (4 K
// blocks), but chunk numbers scatter pseudo-randomly across a ~1 TB range.
// Real processes see exactly this shape — contiguous arrays at scattered
// virtual/physical regions — and it is what gives cache tags their
// diversity: without it, a contiguous footprint yields a handful of
// structured tags and partial-tag aliasing (DNUCA's false-positive
// searches, TLCopt's multi-matches) can never occur. The mix is a
// splitmix64 finalizer; with at most thousands of chunks in a 2^28 space,
// accidental chunk collisions are negligible.
func layout(id uint64) mem.Block {
	const chunkBits = 12
	const mask = 1<<28 - 1
	chunk := id >> chunkBits
	chunk ^= chunk >> 30 // pre-mix is a no-op for small ids; kept for form
	chunk *= 0xbf58476d1ce4e5b9
	chunk ^= chunk >> 27
	chunk *= 0x94d049bb133111eb
	chunk ^= chunk >> 31
	return mem.Block((chunk&mask)<<chunkBits | id&(1<<chunkBits-1))
}

// nextBlock picks the next referenced block by region. It is the scalar
// reference implementation, kept in its straightforward per-draw form (and
// as the honest baseline arm of BenchmarkWarmThroughput); NextMems is the
// optimized kernel that must reproduce its draw sequence bit-exactly.
func (g *Generator) nextBlock() mem.Block {
	r := g.rng.Float64()
	switch {
	case r < g.spec.L1Frac:
		g.counters.l1Refs++
		return layout(g.l1Base + uint64(g.rng.Int63n(int64(g.l1Blocks))))
	case r < g.spec.L1Frac+g.spec.HotFrac:
		g.counters.hotRefs++
		return layout(g.hotBase + g.skewed(g.hotBlocks))
	case r < g.spec.L1Frac+g.spec.HotFrac+g.spec.StreamFrac:
		g.counters.streamRefs++
		if g.streamLeft <= 0 {
			g.streamPtr = (g.streamPtr + 1) % g.coldBlocks
			repeat := g.spec.StreamRepeat
			if repeat <= 0 {
				repeat = 8
			}
			g.streamLeft = repeat
		}
		g.streamLeft--
		return layout(g.coldBase + g.streamPtr)
	case r < g.spec.L1Frac+g.spec.HotFrac+g.spec.StreamFrac+g.spec.RecentFrac:
		g.counters.recentRefs++
		// Revisit a block streamed 1K-16K blocks ago: evicted from the
		// 64 KB L1 (1K blocks) but still in the L2.
		delta := uint64(1024 + g.rng.Int63n(15*1024))
		if delta >= g.coldBlocks {
			delta = g.coldBlocks - 1
		}
		return layout(g.coldBase + (g.streamPtr+g.coldBlocks-delta)%g.coldBlocks)
	default:
		g.counters.coldRefs++
		if g.spec.ColdWindowMB > 0 {
			return layout(g.coldBase + g.windowRef())
		}
		if g.spec.ColdSkew > 0 {
			return layout(g.coldBase + g.skewedN(g.coldBlocks, g.spec.ColdSkew))
		}
		return layout(g.coldBase + uint64(g.rng.Int63n(int64(g.coldBlocks))))
	}
}

// windowRef implements the sliding working-set model: admit a fresh block
// with probability ColdTurnover, else revisit the current window. Indices
// count backward from the window head, wrapping over the cold region.
func (g *Generator) windowRef() uint64 {
	window := uint64(g.spec.ColdWindowMB * blocksPerMB)
	if window == 0 || window > g.coldBlocks {
		window = g.coldBlocks
	}
	if g.rng.Float64() < g.spec.ColdTurnover {
		g.windowHead = (g.windowHead + 1) % g.coldBlocks
		return g.windowHead
	}
	back := uint64(g.rng.Int63n(int64(window)))
	return (g.windowHead + g.coldBlocks - back) % g.coldBlocks
}

// skewed draws an index in [0,n) with the spec's hot-region skew.
func (g *Generator) skewed(n uint64) uint64 { return g.skewedN(n, g.spec.HotSkew) }

// skewedN draws an index in [0,n) with `levels` rounds of nested 80/20
// skew: each round keeps the first fifth of the range with probability
// 0.8.
func (g *Generator) skewedN(n uint64, levels int) uint64 {
	lo, hi := uint64(0), n
	for level := 0; level < levels && hi-lo > 5; level++ {
		if g.rng.Float64() < 0.8 {
			hi = lo + (hi-lo)/5
		} else {
			lo += (hi - lo) / 5
		}
	}
	return lo + uint64(g.rng.Int63n(int64(hi-lo)))
}

// Region classifies a laid-out block address by the footprint region it
// came from: "l1", "hot", "cold", or "outside". Useful for analyzing which
// traffic class a cache design penalizes. The reverse index is built
// lazily on first use.
func (g *Generator) Region(b mem.Block) string {
	if g.reverse == nil {
		g.reverse = make(map[mem.Block]uint64, g.TotalBlocks())
		for id := uint64(0); id < g.TotalBlocks(); id++ {
			g.reverse[layout(id)] = id
		}
	}
	id, ok := g.reverse[b]
	switch {
	case !ok:
		return "outside"
	case id < g.hotBase:
		return "l1"
	case id < g.coldBase:
		return "hot"
	default:
		return "cold"
	}
}

// TotalBlocks reports the footprint in 64-byte blocks.
func (g *Generator) TotalBlocks() uint64 {
	return g.l1Blocks + g.hotBlocks + g.coldBlocks
}

// l2CapacityBlocks is the 16 MB L2 in blocks, bounding how much of a huge
// footprint a pre-warm can usefully install.
const l2CapacityBlocks = 16 * blocksPerMB // 16 MB / 64 B

// PreWarm installs the cache-relevant slice of the footprint functionally:
// the most recently streamed cold blocks first (they come out coldest —
// LRU in the recency designs, farthest banks in DNUCA), then the hot
// region, then the L1-hot region. The cold window is sized so hot data is
// never displaced: capacity minus the hot regions. The generator's Warm
// pass then establishes steady-state recency and migration state.
func (g *Generator) PreWarm(c l2.Cache) {
	budget := uint64(l2CapacityBlocks)
	hotTotal := g.hotBlocks + g.l1Blocks
	var coldWindow uint64
	if budget > hotTotal {
		// Fill to three quarters of the remaining capacity, not all of
		// it: block-to-set mapping is Poisson, so filling to the global
		// mean would overflow a third of the sets and spill the
		// hot-region blocks (inserted last) into placements a warmed-up
		// cache would never leave them in.
		coldWindow = (budget - hotTotal) * 3 / 4
	}
	if coldWindow > g.coldBlocks {
		coldWindow = g.coldBlocks
	}
	// The stream resumes at streamPtr (= 0, i.e. just past cold[N-1]); the
	// window just behind it is what a long-running process would have
	// resident, oldest first. Designs supporting bulk warming receive the
	// blocks in batches (one dispatch per batch, same installation order);
	// the rest get the per-block Warm calls.
	warmer, bulk := c.(l2.Warmer)
	var buf []mem.Block
	if bulk {
		buf = make([]mem.Block, 0, 1024)
	}
	emit := func(b mem.Block) {
		if !bulk {
			c.Warm(b)
			return
		}
		buf = append(buf, b)
		if len(buf) == cap(buf) {
			warmer.WarmBulk(buf)
			buf = buf[:0]
		}
	}
	for i := coldWindow; i > 0; i-- {
		emit(layout(g.coldBase + g.coldBlocks - i))
	}
	for b := g.hotBase; b < g.hotBase+g.hotBlocks; b++ {
		emit(layout(b))
	}
	for b := g.l1Base; b < g.l1Base+g.l1Blocks; b++ {
		emit(layout(b))
	}
	if bulk && len(buf) > 0 {
		warmer.WarmBulk(buf)
	}
}

// Specs returns the twelve benchmark specs in the paper's Table 6 order.
func Specs() []Spec {
	return []Spec{
		// SPECint 2000. Small footprints that fit the 16 MB L2; miss
		// rates near zero (Table 6: 0.019-0.068 per 1K instructions).
		// bzip's hot set mostly fits DNUCA's 2 MB of close banks
		// (close-hit 81%).
		{Name: "bzip", FootprintMB: 7, L1MB: 0.03, L1Frac: 0.954, HotMB: 1.0, HotFrac: 0.028,
			StreamFrac: 0.016, StoreFrac: 0.30, MemFrac: 0.30, DepFrac: 0.45, SerialFrac: 0.6},
		// gcc's hot set fits the close banks: 99% close hits.
		{Name: "gcc", FootprintMB: 6, L1MB: 0.03, L1Frac: 0.78, HotMB: 1.6, HotFrac: 0.21,
			HotSkew: 1, StreamFrac: 0.005, StoreFrac: 0.35, MemFrac: 0.35, DepFrac: 0.45, SerialFrac: 0.6},
		// mcf: pointer chasing over a large in-cache footprint; the close
		// banks hold only a fraction of its hot set (close-hit 48%), and
		// dependent loads expose the full L2 latency.
		{Name: "mcf", FootprintMB: 10, L1MB: 0.02, L1Frac: 0.716, HotMB: 5, HotFrac: 0.27,
			StreamFrac: 0.01, StoreFrac: 0.15, MemFrac: 0.40, DepFrac: 0.75, SerialFrac: 0.5},
		{Name: "perl", FootprintMB: 4, L1MB: 0.03, L1Frac: 0.9837, HotMB: 0.4, HotFrac: 0.015,
			HotSkew: 2, StreamFrac: 0.0, StoreFrac: 0.35, MemFrac: 0.30, DepFrac: 0.40, SerialFrac: 0.6},
		// SPECfp 2000. equake mixes a large frequently-reused set with a
		// stream — the case that separates DNUCA's insertion policy from
		// TLC's LRU (Section 6.1). The streamers (swim, applu, lucas)
		// miss on nearly every L2 request; their few hits are short-reuse
		// revisits landing in DNUCA's far banks.
		{Name: "equake", FootprintMB: 160, L1MB: 0.03, L1Frac: 0.8806, HotMB: 12, HotFrac: 0.0214,
			StreamFrac: 0.096, StoreFrac: 0.20, MemFrac: 0.35, DepFrac: 0.25},
		// swim is nearly pure streaming: its few hits are short-reuse
		// revisits to recently streamed blocks, which sit in DNUCA's far
		// banks (close-hit 0.7%, promotes/inserts 0.15).
		{Name: "swim", FootprintMB: 192, L1MB: 0.004, L1Frac: 0.06, HotMB: 0.25, HotFrac: 0.002,
			StreamFrac: 0.92, RecentFrac: 0.014, StoreFrac: 0.35, MemFrac: 0.40, DepFrac: 0.10},
		{Name: "applu", FootprintMB: 180, L1MB: 0.03, L1Frac: 0.627, HotMB: 0.25, HotFrac: 0.002,
			StreamFrac: 0.366, RecentFrac: 0.003, StoreFrac: 0.35, MemFrac: 0.35, DepFrac: 0.10},
		{Name: "lucas", FootprintMB: 140, L1MB: 0.03, L1Frac: 0.6413, HotMB: 0.5, HotFrac: 0.004,
			StreamFrac: 0.3467, RecentFrac: 0.0065, StoreFrac: 0.25, MemFrac: 0.30, DepFrac: 0.10},
		// Commercial workloads: large footprints, a cache-resident hot
		// set, and a cold tail whose misses set the Table 6 rates.
		{Name: "apache", FootprintMB: 120, L1MB: 0.03, L1Frac: 0.913, HotMB: 2.5, HotFrac: 0.048,
			HotSkew: 1, ColdWindowMB: 1.2, ColdTurnover: 0.33, StreamFrac: 0.002,
			StoreFrac: 0.30, MemFrac: 0.35, DepFrac: 0.45, SerialFrac: 0.5},
		{Name: "zeus", FootprintMB: 130, L1MB: 0.03, L1Frac: 0.918, HotMB: 0.6, HotFrac: 0.030,
			HotSkew: 1, ColdWindowMB: 1.2, ColdTurnover: 0.33, StreamFrac: 0.002,
			StoreFrac: 0.30, MemFrac: 0.35, DepFrac: 0.45, SerialFrac: 0.5},
		{Name: "sjbb", FootprintMB: 100, L1MB: 0.03, L1Frac: 0.958, HotMB: 0.8, HotFrac: 0.023,
			HotSkew: 1, ColdWindowMB: 1.2, ColdTurnover: 0.33, StreamFrac: 0.002,
			StoreFrac: 0.30, MemFrac: 0.35, DepFrac: 0.40, SerialFrac: 0.5},
		{Name: "oltp", FootprintMB: 60, L1MB: 0.03, L1Frac: 0.9805, HotMB: 1.2, HotFrac: 0.0136,
			HotSkew: 2, ColdWindowMB: 1.0, ColdTurnover: 0.33, StreamFrac: 0.001,
			StoreFrac: 0.35, MemFrac: 0.35, DepFrac: 0.50, SerialFrac: 0.5},
	}
}

// AutoWarmInstructions reports a warm-up length that gives every block of
// the hot working set roughly five L2-visible touches — enough for DNUCA's
// accelerated warm promotion to reach its steady-state placement —
// clamped to [4 M, 24 M] instructions.
func (s Spec) AutoWarmInstructions() uint64 {
	const touches = 5
	hotBlocks := s.HotMB * blocksPerMB
	rate := s.MemFrac * s.HotFrac
	warm := uint64(4_000_000)
	if rate > 0 {
		if w := uint64(touches * hotBlocks / rate); w > warm {
			warm = w
		}
	}
	if warm > 24_000_000 {
		warm = 24_000_000
	}
	return warm
}

// specIndex maps benchmark names to their specs, built once: SpecByName is
// called per Run and per checkpoint-key computation, and rebuilding all
// twelve specs per lookup was measurable in sweep profiles.
var specIndex = func() map[string]Spec {
	m := make(map[string]Spec, 12)
	for _, s := range Specs() {
		m[s.Name] = s
	}
	return m
}()

// SpecByName looks up one of the twelve benchmarks.
func SpecByName(name string) (Spec, bool) {
	s, ok := specIndex[name]
	return s, ok
}

// specNames is the Table 6 name order, built once alongside specIndex.
var specNames = func() []string {
	specs := Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}()

// Names lists the benchmark names in order. The returned slice is fresh per
// call; callers may mutate it.
func Names() []string {
	out := make([]string, len(specNames))
	copy(out, specNames)
	return out
}
