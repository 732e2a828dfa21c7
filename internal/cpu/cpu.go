// Package cpu is the dynamically scheduled processor timing model of
// Table 3: 4-wide fetch/issue, 128-entry reorder buffer, 64-entry
// scheduler window, split 64 KB 2-way L1 caches at 3 cycles, up to 8
// outstanding memory requests, and a 300-cycle memory behind the L2 under
// test.
//
// It substitutes for the paper's Simics + timing-first setup: instructions
// come from a synthetic trace (package workload), and the model preserves
// exactly the sensitivities the paper's results depend on — tolerance of
// short L2 latencies through out-of-order overlap, serialization of
// dependent loads, and stalls on L2 misses bounded by the MSHR count.
package cpu

import (
	"fmt"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Instr is one instruction of a synthetic trace.
type Instr struct {
	// IsMem marks loads and stores; other instructions execute in one
	// cycle.
	IsMem bool
	// IsStore distinguishes stores from loads (meaningful when IsMem).
	IsStore bool
	// Block is the 64-byte block the memory op touches.
	Block mem.Block
	// Dep marks an instruction that depends on the most recent
	// instruction of its kind: a dependent load cannot issue before the
	// previous load completes (pointer chasing); a dependent ALU op
	// cannot issue before the previous instruction completes (serial
	// integer chains, the ILP limiter).
	Dep bool
	// Mispredict marks a mispredicted branch: the front end restarts,
	// costing a pipeline refill (Table 3: 30 stages).
	Mispredict bool
}

// MemRef is one memory operation of a warm stream: the block and whether
// the access is a store. Functional warming needs nothing else. It aliases
// cache.WarmRef so the L1 array can consume whole batches directly
// (SetAssoc.WarmSweep) without a package cycle.
type MemRef = cache.WarmRef

// Source is the one delivery contract of every instruction stream the
// core, the lane warmer and the phase profiler consume. Both methods
// advance the same deterministic instruction sequence, and a stream may mix
// them freely: the sequence delivered is identical whichever call delivers
// it, so a detailed interval can resume on the same stream right after a
// warm stretch. Producers keep a scalar Next as the reference both methods
// are tested against; this package never calls it.
//
// NextBatch fills a caller-owned buffer with the next len(buf) instructions
// and returns how many it wrote (always at least 1 for a non-empty buffer).
//
// NextMems is the warm-mode fast path: it advances the stream by up to
// maxInstr instructions, materializing only the memory operations into buf
// and skipping non-memory instructions as run-length counts. It returns the
// number of MemRefs written and the total instructions consumed (consumed
// >= n; the difference is the skipped non-memory run, and consumed >= 1
// whenever maxInstr and buf are non-empty).
type Source interface {
	NextBatch(buf []Instr) int
	NextMems(buf []MemRef, maxInstr uint64) (n int, consumed uint64)
}

// Result summarizes one timed run.
type Result struct {
	Instructions uint64
	Cycles       sim.Time
	L1DHits      uint64
	L1DMisses    uint64
	L2Loads      uint64
	L2Stores     uint64
}

// IPC reports retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Coherence is the bus-side hook a CMP coherence layer installs on each
// core: the core reports every store (the BusRdX / upgrade moment — the
// writer must gain exclusive ownership) so the directory can invalidate
// remote L1 copies. Loads need no hook: load misses reach the shared L2
// through Access carrying the core id (BusRd), and load hits touch only
// lines this L1 already holds in a readable state.
type Coherence interface {
	StoreNotify(core int, b mem.Block)
}

// Core drives a Source against an L2 design.
type Core struct {
	sys config.System
	l2  l2.Cache

	// id is this core's CMP core index, stamped on every L2 request.
	// Single-core runs leave it zero.
	id int
	// coh, when non-nil, observes every store for MSI upgrade handling.
	// Nil on single-core runs: the hook costs one nil-check per store.
	coh Coherence

	l1 *cache.SetAssoc
	// dirty[idx] is the dirty bit of L1 line idx (set*assoc+way): per-way
	// state alongside the set-associative array, as the hardware keeps it.
	// A map keyed by block was the hot-loop allocator here. Bytes rather
	// than bools so the warm fast path can update them with arithmetic
	// instead of a data-random branch.
	dirty []uint8

	// retire ring buffer: retire[i % ROB] is instruction i's retire time.
	retire []sim.Time
	// issued ring buffer: issued[i % sched] is when instruction i left the
	// scheduler (operands ready). A waiting instruction occupies a
	// scheduler entry, so instruction i cannot enter the window before
	// instruction i-sched has issued — the constraint that exposes L2
	// latencies beyond the 64-entry window's reach (Table 3).
	issued []sim.Time
	// outstanding L2 load completion times (MSHR occupancy), a small
	// sorted multiset maintained in place.
	outstanding []sim.Time
	lastLoad    sim.Time
	// prevComplete is the previous instruction's completion, for serial
	// ALU chains.
	prevComplete sim.Time
	// fetchPenalty accumulates branch-misprediction pipeline refills.
	fetchPenalty sim.Time

	// Timing-epoch state: RunFrom starts a new epoch; Resume continues the
	// current one. epochBase is the clock the epoch's fetch frontier counts
	// from, epochInstrs the detailed instructions executed so far in the
	// epoch (the ring-buffer index continues across Resume calls), and
	// lastRetire the retire time of the epoch's most recent instruction.
	epochBase   sim.Time
	epochInstrs uint64
	lastRetire  sim.Time

	res Result

	// fast selects the fast timing tier (fast.go): SetFast switches the
	// run dispatch, everything else — warm kernels, checkpoints, metrics —
	// is tier-independent. fastRem carries the fast tier's sub-cycle fetch
	// remainder across chunks and Resume calls; it is epoch state and
	// resets with the pipeline in resetTiming.
	fast    bool
	fastRem uint64
	// fastL2 is the L2's uncontended analytic timing path, resolved by
	// SetFast when the design offers it (nil otherwise: fall back to the
	// contended Access path under fast timing).
	fastL2 l2.FastTimer

	// Batched-delivery buffers, allocated lazily on first use and reused
	// for the core's lifetime so the hot loops stay allocation-free.
	// batch receives detailed-mode instructions (Core.run), memBuf receives
	// warm-mode memory references (Warm), and l2Warm collects warm-path
	// L2 installs for bulk delivery to an l2.Warmer.
	batch  []Instr
	memBuf []MemRef
	l2Warm []mem.Block

	// cancel, when set, is polled at batch boundaries during Warm and run;
	// a non-nil return aborts the loop and is retained in cancelErr. Polling
	// happens once per instruction batch (a few thousand instructions), so
	// cooperative cancellation costs a nil-check per batch, not per
	// instruction, and never perturbs the simulated state of a run that was
	// not cancelled.
	cancel    func() error
	cancelErr error

	// cum accumulates pipeline-event counters over the whole timing epoch
	// (res resets on every run/Resume call; these reset with the epoch in
	// resetTiming), feeding the metrics registry.
	cum struct {
		l1dHits, l1dMisses     uint64
		l2Loads, l2Stores      uint64
		robStalls, schedStalls uint64
		mshrWaits, mispredicts uint64
	}

	// countWarmMisses gates functional L2-miss counting in the warm paths:
	// when set, every warm-path L2 install is preceded by a read-only
	// Contains probe and warmL2Misses counts the absent blocks — the misses
	// a detailed run over the same stretch would have charged. Off by
	// default so bulk warming (the 2M-instruction warm phase, uniform
	// fast-forward, lane sweeps) pays nothing; the phase-sampled runner
	// enables it across the timed region to total its L2-miss covariate
	// exactly. The probe never mutates cache state, so counting cannot
	// perturb a run.
	countWarmMisses bool
	warmL2Misses    uint64
}

// New builds a core over the given L2.
func New(sys config.System, l2c l2.Cache) *Core {
	sets := sys.L1Bytes / mem.BlockBytes / sys.L1Assoc
	l1 := cache.NewSetAssoc(sets, sys.L1Assoc)
	return &Core{
		sys:    sys,
		l2:     l2c,
		l1:     l1,
		dirty:  make([]uint8, l1.Blocks()),
		retire: make([]sim.Time, sys.ROBEntries),
		issued: make([]sim.Time, sys.SchedulerEntries),
		// MSHR occupancy never exceeds MaxOutstanding entries; a fixed
		// capacity keeps the tracking allocation-free.
		outstanding: make([]sim.Time, 0, sys.MaxOutstanding),
	}
}

// SetCoherence installs the MSI hook with this core's CMP core index. The
// machine layer calls it once per core after warm-up; single-core runs
// never do, keeping the default path free of coherence work beyond a
// nil-check per store.
func (c *Core) SetCoherence(id int, h Coherence) {
	c.id = id
	c.coh = h
}

// Invalidate removes b from the L1 (a remote BusRdX hitting this core's
// copy) and reports whether the line was present and whether it was dirty.
// The dirty bit clears with the line; the caller accounts the writeback.
func (c *Core) Invalidate(b mem.Block) (present, wasDirty bool) {
	way, ok := c.l1.WayOf(b)
	if !ok {
		return false, false
	}
	idx := b.SetIndex(c.l1.Sets())*c.l1.Assoc() + way
	wasDirty = c.dirty[idx] != 0
	c.dirty[idx] = 0
	c.l1.Remove(b)
	return true, wasDirty
}

// Downgrade clears b's dirty bit (a remote BusRd demoting this core's M
// copy to S) and reports whether the line was present and dirty. The line
// itself stays resident and readable.
func (c *Core) Downgrade(b mem.Block) (present, wasDirty bool) {
	way, ok := c.l1.WayOf(b)
	if !ok {
		return false, false
	}
	idx := b.SetIndex(c.l1.Sets())*c.l1.Assoc() + way
	wasDirty = c.dirty[idx] != 0
	c.dirty[idx] = 0
	return true, wasDirty
}

// VisitL1 calls fn for every valid L1 line with its dirty bit. The machine
// layer seeds the coherence directory from post-warm L1 contents with it;
// iteration order is deterministic (set-major, way order).
func (c *Core) VisitL1(fn func(b mem.Block, dirty bool)) {
	var buf []cache.Line
	for set := 0; set < c.l1.Sets(); set++ {
		buf = c.l1.AppendLinesIn(buf[:0], set)
		for _, ln := range buf {
			fn(ln.Block, c.dirty[set*c.l1.Assoc()+ln.Way] != 0)
		}
	}
}

// SetCancel installs a cooperative cancellation check, polled at batch
// boundaries by Warm and the timed run loops. When fn returns a non-nil
// error the current loop stops early and CancelErr reports it; the machine
// state is then mid-run and must be discarded (in particular, never
// checkpointed). A nil fn disables checking.
func (c *Core) SetCancel(fn func() error) { c.cancel = fn }

// CancelErr reports the error that aborted the most recent Warm or run
// call, if any. It clears on the next RunFrom (resetTiming), matching the
// rest of the per-epoch state.
func (c *Core) CancelErr() error { return c.cancelErr }

// cancelled polls the cancellation hook and records the first error.
func (c *Core) cancelled() bool {
	if c.cancel == nil || c.cancelErr != nil {
		return c.cancelErr != nil
	}
	if err := c.cancel(); err != nil {
		c.cancelErr = err
		return true
	}
	return false
}

// RegisterMetrics publishes the core's pipeline and L1 counters under
// "cpu.". The counters cover the current timing epoch: they reset with the
// pipeline in RunFrom, and accumulate across Resume calls.
func (c *Core) RegisterMetrics(r *metrics.Registry) {
	c.RegisterMetricsPrefixed(r, "")
}

// RegisterMetricsPrefixed is RegisterMetrics with the names prefixed — CMP
// runs publish each core's counters under "core.<i>." so per-core traffic
// stays attributable after aggregation.
func (c *Core) RegisterMetricsPrefixed(r *metrics.Registry, prefix string) {
	r.CounterFunc(prefix+"cpu.l1d.hits", func() uint64 { return c.cum.l1dHits })
	r.CounterFunc(prefix+"cpu.l1d.misses", func() uint64 { return c.cum.l1dMisses })
	r.CounterFunc(prefix+"cpu.l2.loads", func() uint64 { return c.cum.l2Loads })
	r.CounterFunc(prefix+"cpu.l2.stores", func() uint64 { return c.cum.l2Stores })
	r.CounterFunc(prefix+"cpu.rob.stalls", func() uint64 { return c.cum.robStalls })
	r.CounterFunc(prefix+"cpu.sched.stalls", func() uint64 { return c.cum.schedStalls })
	r.CounterFunc(prefix+"cpu.mshr.waits", func() uint64 { return c.cum.mshrWaits })
	r.CounterFunc(prefix+"cpu.fetch.mispredicts", func() uint64 { return c.cum.mispredicts })
}

// RegisterMetricsSum publishes the summed counters of several cores under
// the plain "cpu." names, so CMP runs keep the aggregate names single-core
// tooling reads alongside the per-core "core.<i>.cpu." sets.
func RegisterMetricsSum(r *metrics.Registry, cores []*Core) {
	sum := func(read func(*Core) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, c := range cores {
				n += read(c)
			}
			return n
		}
	}
	r.CounterFunc("cpu.l1d.hits", sum(func(c *Core) uint64 { return c.cum.l1dHits }))
	r.CounterFunc("cpu.l1d.misses", sum(func(c *Core) uint64 { return c.cum.l1dMisses }))
	r.CounterFunc("cpu.l2.loads", sum(func(c *Core) uint64 { return c.cum.l2Loads }))
	r.CounterFunc("cpu.l2.stores", sum(func(c *Core) uint64 { return c.cum.l2Stores }))
	r.CounterFunc("cpu.rob.stalls", sum(func(c *Core) uint64 { return c.cum.robStalls }))
	r.CounterFunc("cpu.sched.stalls", sum(func(c *Core) uint64 { return c.cum.schedStalls }))
	r.CounterFunc("cpu.mshr.waits", sum(func(c *Core) uint64 { return c.cum.mshrWaits }))
	r.CounterFunc("cpu.fetch.mispredicts", sum(func(c *Core) uint64 { return c.cum.mispredicts }))
}

// Batch-buffer capacities. streamBatch bounds one detailed-mode NextBatch
// fill; memBatch bounds one warm-mode NextMems fill; l2WarmCap sizes the
// warm-path bulk-install buffer for the worst case of one sweep (a dirty
// writeback plus a load fill per reference) so a sweep's spill never
// reallocates. All keep the working set well inside the host cache while
// amortizing the interface crossings they exist to eliminate.
const (
	streamBatch = 4096
	memBatch    = 512
	l2WarmCap   = 2 * memBatch
)

// SetWarmMissCounting gates functional L2-miss counting during Warm; see
// the countWarmMisses field. The count is read with WarmL2Misses.
func (c *Core) SetWarmMissCounting(on bool) { c.countWarmMisses = on }

// WarmL2Misses returns the L2 misses counted by warm-path probing since the
// core was built (only stretches with SetWarmMissCounting(true) count).
func (c *Core) WarmL2Misses() uint64 { return c.warmL2Misses }

// Warm advances the stream n instructions functionally: L1 state and L2
// contents update with no timing, so the measured interval starts from a
// steady-state cache.
//
// Non-memory instructions are skipped as run-length counts inside the
// stream (NextMems), and each fill is driven through the L1 in one
// WarmSweep call, which appends — in reference order — every block the L2
// must observe (dirty-victim writeback before the missing block's fill) to
// the reusable spill buffer. The L2 installs a warm loop emits never feed
// back into L1 decisions, so delivering each sweep's spill through
// l2.WarmAll (one WarmBulk call when the design implements l2.Warmer)
// preserves the exact Warm-call sequence of the per-instruction reference
// loop (warm_ref_test.go pins this).
func (c *Core) Warm(s Source, n uint64) {
	if c.memBuf == nil {
		c.memBuf = make([]MemRef, memBatch)
	}
	if c.l2Warm == nil {
		c.l2Warm = make([]mem.Block, 0, l2WarmCap)
	}
	for remaining := n; remaining > 0; {
		if c.cancelled() {
			return
		}
		m, consumed := s.NextMems(c.memBuf, remaining)
		if consumed == 0 {
			panic("cpu: warm stream made no progress")
		}
		remaining -= consumed
		spill := c.l1.WarmSweep(c.memBuf[:m], c.dirty, c.l2Warm[:0])
		if c.countWarmMisses {
			// Probe before the batch installs. A block repeated within one
			// spill (victim refilled in the same sweep) counts once per
			// probe rather than once per true miss; at a few hundred
			// references per sweep the double-count is noise against the
			// covariate total it feeds.
			for _, b := range spill {
				if !c.l2.Contains(b) {
					c.warmL2Misses++
				}
			}
		}
		l2.WarmAll(c.l2, spill)
	}
}

// Run times n instructions and returns the result. It may be called after
// Warm on the same stream. Per-run timing state resets on entry, so
// repeated Runs on one core (retaining the warmed L1/L2 contents) start
// from a clean pipeline rather than inheriting the previous run's retire,
// scheduler, MSHR, and fetch-penalty state.
func (c *Core) Run(s Source, n uint64) Result { return c.RunFrom(s, n, 0) }

// RunFrom is Run with the pipeline's clock starting at cycle base instead
// of zero. Sampled execution uses it to keep simulated time monotone across
// detailed intervals: the L2 designs require non-decreasing access times
// (their port and link Resources book absolute spans), so a later interval
// must continue past an earlier one's finish rather than restart at zero.
// The returned Result's Cycles is the absolute finish time; the interval's
// own length is Cycles - base.
func (c *Core) RunFrom(s Source, n uint64, base sim.Time) Result {
	c.resetTiming()
	c.epochBase = base
	c.lastRetire = base
	return c.run(s, n)
}

// Resume continues detailed timing where the previous RunFrom or Resume on
// this core left off: the retire and scheduler rings, MSHR occupancy, fetch
// frontier, and dependence state all carry across, so RunFrom(s, m, base)
// followed by Resume(s, n) is cycle-identical to a single RunFrom of m+n
// instructions. Sampled execution interleaves functional Warm stretches
// (which occupy no simulated time) with Resume intervals, so interval
// boundaries introduce no pipeline-restart transient into the measured CPI.
func (c *Core) Resume(s Source, n uint64) Result { return c.run(s, n) }

// run times n instructions within the current timing epoch. Instructions
// arrive in NextBatch fills of the core's reusable buffer, so the loop
// allocates nothing per call.
//
// The ring slots and the fetch cycle are wrapping counters rather than
// divisions of the instruction index: they are seeded once per call from
// epochInstrs (so Resume continues them) and stepped per instruction, which
// holds for any ROB, scheduler, and fetch-width size.
func (c *Core) run(s Source, n uint64) Result {
	if c.fast {
		return c.runFast(s, n)
	}
	c.res = Result{Instructions: n}
	rob := uint64(c.sys.ROBEntries)
	sched := uint64(c.sys.SchedulerEntries)
	width := uint64(c.sys.FetchWidth)
	base := c.epochBase
	i := c.epochInstrs
	last := c.lastRetire
	// ri = i%rob, si = i%sched, pi = (i-1) mod rob (the previous
	// instruction's retire slot), wi = (i-width) mod rob, and fq, fr the
	// quotient and remainder of i/width.
	ri, si := i%rob, i%sched
	pi := (ri + rob - 1) % rob
	wi := (ri + rob - width%rob) % rob
	fq, fr := i/width, i%width
	if c.batch == nil {
		c.batch = make([]Instr, streamBatch)
	}
	for j := uint64(0); j < n; {
		if c.cancelled() {
			break
		}
		want := n - j
		if want > streamBatch {
			want = streamBatch
		}
		got := s.NextBatch(c.batch[:want])
		if got <= 0 {
			panic("cpu: batch stream made no progress")
		}
		for _, in := range c.batch[:got] {
			// Fetch bandwidth: FetchWidth instructions per cycle, pushed
			// back by accumulated misprediction refills.
			issue := base + sim.Time(fq) + c.fetchPenalty
			// ROB availability: instruction i needs instruction i-ROB
			// retired.
			if i >= rob {
				if t := c.retire[ri]; t > issue {
					issue = t
					c.cum.robStalls++
				}
			}
			// Scheduler availability: instruction i-sched must have issued.
			if i >= sched {
				if t := c.issued[si]; t > issue {
					issue = t
					c.cum.schedStalls++
				}
			}
			issueAt, complete := c.execute(issue, in)
			c.issued[si] = issueAt
			if in.Mispredict {
				c.fetchPenalty += sim.Time(c.sys.PipelineStages)
				c.cum.mispredicts++
			}
			c.prevComplete = complete
			// In-order retirement at fetch width.
			slot := c.retire[pi] // previous instruction's retire
			if i == 0 {
				slot = base
			}
			if complete > slot {
				slot = complete
			}
			if i >= width {
				if t := c.retire[wi] + 1; t > slot {
					slot = t
				}
			}
			c.retire[ri] = slot
			last = slot

			i++
			pi = ri
			if ri++; ri == rob {
				ri = 0
			}
			if si++; si == sched {
				si = 0
			}
			if wi++; wi == rob {
				wi = 0
			}
			if fr++; fr == width {
				fr = 0
				fq++
			}
		}
		j += uint64(got)
	}
	c.epochInstrs += n
	c.lastRetire = last
	c.res.Cycles = last
	return c.res
}

// resetTiming clears the pipeline timing state a run accumulates. Cache
// contents (L1 array, dirty bits) survive: they are architectural state a
// back-to-back run legitimately inherits.
func (c *Core) resetTiming() {
	for i := range c.retire {
		c.retire[i] = 0
	}
	for i := range c.issued {
		c.issued[i] = 0
	}
	c.outstanding = c.outstanding[:0]
	c.lastLoad = 0
	c.prevComplete = 0
	c.fetchPenalty = 0
	c.fastRem = 0
	c.cancelErr = nil
	c.epochBase = 0
	c.epochInstrs = 0
	c.lastRetire = 0
	c.cum = struct {
		l1dHits, l1dMisses     uint64
		l2Loads, l2Stores      uint64
		robStalls, schedStalls uint64
		mshrWaits, mispredicts uint64
	}{}
}

// State is the core's architectural cache state: the L1 array plus its
// per-line dirty bits. Pipeline timing state is deliberately absent — Run
// resets it on entry, so a warm core is fully described by its caches.
// Fields are exported for gob encoding by the on-disk checkpoint store.
type State struct {
	L1    cache.SetAssocState
	Dirty []bool
}

// Snapshot captures the core's post-warm state. The result shares no memory
// with the core.
func (c *Core) Snapshot() State {
	st := State{
		L1:    c.l1.Snapshot(),
		Dirty: make([]bool, len(c.dirty)),
	}
	for i, d := range c.dirty {
		st.Dirty[i] = d != 0
	}
	return st
}

// Restore overwrites the core's L1 contents and dirty bits with a captured
// state and clears pipeline timing, exactly the condition a fresh core is
// in after Warm. It rejects states from a differently configured core.
func (c *Core) Restore(st State) error {
	if len(st.Dirty) != len(c.dirty) {
		return fmt.Errorf("cpu: restoring %d dirty bits into a %d-line L1", len(st.Dirty), len(c.dirty))
	}
	if err := c.l1.Restore(st.L1); err != nil {
		return err
	}
	for i, d := range st.Dirty {
		if d {
			c.dirty[i] = 1
		} else {
			c.dirty[i] = 0
		}
	}
	c.resetTiming()
	return nil
}

// execute computes an instruction's issue (operands ready, scheduler entry
// freed) and completion times, given the earliest window entry `issue`.
func (c *Core) execute(issue sim.Time, in Instr) (issueAt, complete sim.Time) {
	if !in.IsMem {
		if in.Dep && c.prevComplete > issue {
			issue = c.prevComplete
		}
		return issue, issue + 1
	}
	if in.IsStore {
		// Stores retire through the store buffer in one cycle; the cache
		// update happens off the critical path.
		c.accessL1(issue, in.Block, true)
		return issue, issue + 1
	}
	if in.Dep && c.lastLoad > issue {
		issue = c.lastLoad
	}
	complete = c.accessL1(issue, in.Block, false)
	c.lastLoad = complete
	return issue, complete
}

// accessL1 performs the L1 lookup, escalating to the L2 on a miss, and
// returns the data-ready time (loads) or the update time (stores).
func (c *Core) accessL1(at sim.Time, b mem.Block, store bool) sim.Time {
	// One fused set scan covers the hit promote and the miss install (the
	// scalar TouchAt-then-InsertAt sequence searched the set twice on a
	// miss).
	idx, hit, victim, evicted := c.l1.TouchOrInsertAt(b)
	if hit {
		c.res.L1DHits++
		c.cum.l1dHits++
		if store {
			c.dirty[idx] = 1
			if c.coh != nil {
				// BusRdX: a store to a possibly shared line must gain
				// exclusive ownership before the write is architecturally
				// visible; the invalidations run off the critical path.
				c.coh.StoreNotify(c.id, b)
			}
		}
		return at + c.sys.L1Latency
	}
	c.res.L1DMisses++
	c.cum.l1dMisses++
	if evicted && c.dirty[idx] != 0 {
		// Dirty writeback to the L2 (the TLC "store" path: written
		// without a tag comparison, fire-and-forget).
		c.l2.Access(at, mem.Request{Block: victim, Type: mem.Store, Core: c.id})
		c.res.L2Stores++
		c.cum.l2Stores++
	}
	if store {
		c.dirty[idx] = 1
		if c.coh != nil {
			// BusRdX on a store miss: write-allocate keeps the timing-only
			// model, but ownership still transfers in the directory.
			c.coh.StoreNotify(c.id, b)
		}
		// Write-allocate without fetch: timing-only model.
		return at + c.sys.L1Latency
	}
	c.dirty[idx] = 0
	// Load miss: bounded by the outstanding-request limit.
	start := c.mshrAdmit(at)
	out := c.l2.Access(start, mem.Request{Block: b, Type: mem.Load, Core: c.id})
	c.res.L2Loads++
	c.cum.l2Loads++
	c.mshrTrack(out.CompleteAt)
	return out.CompleteAt
}

// mshrAdmit delays a request while all MSHRs are busy and returns its
// admission time.
func (c *Core) mshrAdmit(at sim.Time) sim.Time {
	// Drop completed entries.
	live := c.outstanding[:0]
	for _, t := range c.outstanding {
		if t > at {
			live = append(live, t)
		}
	}
	c.outstanding = live
	if len(c.outstanding) < c.sys.MaxOutstanding {
		return at
	}
	c.cum.mshrWaits++
	// Wait for the earliest completion, then free that entry.
	earliest := c.outstanding[0]
	for _, t := range c.outstanding[1:] {
		if t < earliest {
			earliest = t
		}
	}
	removed := false
	live = c.outstanding[:0]
	for _, t := range c.outstanding {
		if !removed && t == earliest {
			removed = true
			continue
		}
		live = append(live, t)
	}
	c.outstanding = live
	return earliest
}

// mshrTrack records a new outstanding completion.
func (c *Core) mshrTrack(completeAt sim.Time) {
	c.outstanding = append(c.outstanding, completeAt)
}
