package cpu

import (
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// Fast tier: an in-order fixed-IPC-with-MLP core model in the style of the
// interval/one-IPC simplified cores of "Validating Simplified Processor
// Models in Architectural Studies" (arXiv 1610.02094). It reuses the warm
// kernels, the checkpoint state (State is pipeline-free, so fast and full
// checkpoints are shape-identical), the MSHR bound, and the batched stream
// protocol, but skips OoO scheduling entirely:
//
//   - non-memory instructions and L1 hits retire at FetchWidth per cycle
//     (one integer divide per NextMems chunk, remainder carried across
//     chunks and Resume calls so long runs lose no cycles to rounding);
//   - L2 load misses charge their latency divided by an MLP factor of
//     MaxOutstanding/2 — the average overlap an OoO window extracts —
//     with MSHR admission still bounding true burst parallelism;
//   - stores and dirty writebacks are fire-and-forget, as in the full
//     model's store-buffer path.
//
// Dep/Mispredict effects and dependent-load serialization are invisible on
// this path by construction; the per-benchmark bias they introduce is
// measured against the full tier and committed as the calibration artifact
// (internal/calibrate), which callers attach to fast results as error
// bounds. All arithmetic is integer-only so the committed artifact is
// bit-reproducible across platforms.

// SetFast selects the fast (in-order, fixed-IPC-with-MLP) timing model for
// subsequent Run/RunFrom/Resume calls. Warm, Snapshot, and Restore are
// tier-independent; a core switched mid-epoch keeps its architectural cache
// state. The setter exists so the tlc layer can pick the tier per run
// without forking the machine construction path. When the L2 offers the
// uncontended analytic path (l2.FastTimer), the fast tier routes every L2
// request through it; other designs fall back to the full Access timing.
func (c *Core) SetFast(on bool) {
	c.fast = on
	c.fastL2 = nil
	if on {
		c.fastL2, _ = c.l2.(l2.FastTimer)
	}
}

// l2Fast issues one L2 request on the fast tier's timing path.
func (c *Core) l2Fast(at sim.Time, req mem.Request) l2.Outcome {
	if c.fastL2 != nil {
		return c.fastL2.AccessFast(at, req)
	}
	return c.l2.Access(at, req)
}

// runFast is the fast-tier counterpart of run: it drives the stream through
// the warm-mode NextMems protocol (memory operations materialized, non-mem
// instructions consumed as run-length counts) and advances a scalar clock
// instead of simulating the pipeline. Epoch semantics match run exactly —
// RunFrom starts the clock at base, Resume continues from lastRetire — so
// sampled and phase-sampled execution compose unchanged.
func (c *Core) runFast(s Source, n uint64) Result {
	c.res = Result{Instructions: n}
	if c.memBuf == nil {
		c.memBuf = make([]MemRef, memBatch)
	}
	width := uint64(c.sys.FetchWidth)
	mlp := sim.Time(c.sys.MaxOutstanding) / 2
	if mlp < 1 {
		mlp = 1
	}
	clock := c.lastRetire
	for remaining := n; remaining > 0; {
		if c.cancelled() {
			break
		}
		m, consumed := s.NextMems(c.memBuf, remaining)
		if consumed == 0 {
			panic("cpu: fast-tier stream made no progress")
		}
		remaining -= consumed
		clock = c.fastChunk(clock, c.memBuf[:m], consumed, width, mlp)
	}
	c.epochInstrs += n
	c.lastRetire = clock
	c.res.Cycles = clock
	return c.res
}

// fastChunk retires one NextMems chunk: consumed instructions spread evenly
// as fetch-bandwidth gaps before the chunk's memory references (so L2
// traffic keeps the stream's pacing instead of arriving in artificial
// bursts), with the sub-cycle remainder carried in fastRem across chunks.
func (c *Core) fastChunk(clock sim.Time, refs []MemRef, consumed uint64, width uint64, mlp sim.Time) sim.Time {
	if len(refs) == 0 {
		c.fastRem += consumed
		clock += sim.Time(c.fastRem / width)
		c.fastRem %= width
		return clock
	}
	q := consumed / uint64(len(refs))
	r := consumed % uint64(len(refs))
	for i := range refs {
		gap := q
		if uint64(i) < r {
			gap++
		}
		c.fastRem += gap
		clock += sim.Time(c.fastRem / width)
		c.fastRem %= width
		clock = c.fastAccess(clock, refs[i], mlp)
	}
	return clock
}

// fastAccess performs one memory reference against the L1/L2 with the same
// architectural bookkeeping as accessL1 (fused touch/insert, dirty bits,
// writebacks, coherence notify, MSHR occupancy) but fast-tier timing: L1
// hits and stores are free (covered by the fixed-IPC base), and an L2 load
// charges its span divided by the MLP factor. MSHR admission is charged in
// full — when all MaxOutstanding entries are busy the clock waits for the
// earliest completion, the same backpressure the full model applies.
func (c *Core) fastAccess(clock sim.Time, ref MemRef, mlp sim.Time) sim.Time {
	idx, hit, victim, evicted := c.l1.TouchOrInsertAt(ref.Block)
	if hit {
		c.res.L1DHits++
		c.cum.l1dHits++
		if ref.Store {
			c.dirty[idx] = 1
			if c.coh != nil {
				c.coh.StoreNotify(c.id, ref.Block)
			}
		}
		return clock
	}
	c.res.L1DMisses++
	c.cum.l1dMisses++
	if evicted && c.dirty[idx] != 0 {
		c.l2Fast(clock, mem.Request{Block: victim, Type: mem.Store, Core: c.id})
		c.res.L2Stores++
		c.cum.l2Stores++
	}
	if ref.Store {
		c.dirty[idx] = 1
		if c.coh != nil {
			c.coh.StoreNotify(c.id, ref.Block)
		}
		return clock
	}
	c.dirty[idx] = 0
	start := c.mshrAdmit(clock)
	out := c.l2Fast(start, mem.Request{Block: ref.Block, Type: mem.Load, Core: c.id})
	c.res.L2Loads++
	c.cum.l2Loads++
	c.mshrTrack(out.CompleteAt)
	if start > clock {
		clock = start
	}
	return clock + (out.CompleteAt-start)/mlp
}
