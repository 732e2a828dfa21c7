package workload

import (
	"fmt"

	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// SharingSpec parameterizes how N CMP cores' streams relate. The zero
// value is the private-striped pattern: every core runs its own copy of
// the benchmark in a disjoint address-space stripe, and core 0's stripe is
// bit-identical to the single-core stream.
type SharingSpec struct {
	// Pattern names the cross-core sharing pattern: "private" (or ""),
	// "producer-consumer" (even cores write a shared region sequentially,
	// odd cores read it), "migratory" (cores take turns doing
	// read-modify-write bursts over the shared region), or "read-mostly"
	// (all cores read the shared region uniformly with a small store
	// fraction).
	Pattern string
	// SharedMB sizes the shared region; zero selects 1 MB. Ignored by the
	// private pattern.
	SharedMB float64
	// SharedFrac is the probability a memory reference is redirected into
	// the shared region; zero selects 0.1. Ignored by the private pattern.
	SharedFrac float64
}

// SharingPatterns lists the valid Pattern names.
func SharingPatterns() []string {
	return []string{"private", "producer-consumer", "migratory", "read-mostly"}
}

// Validate rejects unknown patterns and out-of-range parameters.
func (s SharingSpec) Validate() error {
	switch s.Pattern {
	case "", "private", "producer-consumer", "migratory", "read-mostly":
	default:
		return fmt.Errorf("workload: unknown sharing pattern %q (want private, producer-consumer, migratory, or read-mostly)", s.Pattern)
	}
	if s.SharedMB < 0 {
		return fmt.Errorf("workload: negative shared region size %g MB", s.SharedMB)
	}
	if s.SharedFrac < 0 || s.SharedFrac > 1 {
		return fmt.Errorf("workload: shared fraction %g outside [0,1]", s.SharedFrac)
	}
	return nil
}

// Normalize resolves defaults so equal-behaviour specs hash equally: ""
// becomes "private", the private pattern drops its unused knobs, and the
// sharing patterns fill in the default region size and redirect fraction.
func (s SharingSpec) Normalize() SharingSpec {
	if s.Pattern == "" {
		s.Pattern = "private"
	}
	if s.Pattern == "private" {
		return SharingSpec{Pattern: "private"}
	}
	if s.SharedMB == 0 {
		s.SharedMB = 1
	}
	if s.SharedFrac == 0 {
		s.SharedFrac = 0.1
	}
	return s
}

// CMPSeed derives core i's stream seed from the run seed. Core 0 keeps the
// run seed itself, so its private stream is the canonical single-core one;
// later cores decorrelate by a golden-ratio stride.
func CMPSeed(seed int64, core int) int64 {
	return seed + int64(core)*0x9e3779b9
}

// CoreTag is the address-space stripe tag of one core's private footprint.
// layout() produces blocks below 2^40; the stripe index rides in bits 44+
// and the shared region claims bit 43, so private stripes and the shared
// region can never alias. Core 0's tag is zero: its private blocks are
// exactly the single-core addresses.
func CoreTag(core int) mem.Block {
	return mem.Block(uint64(core) << 44)
}

// sharedRegionTag marks shared-region blocks (see CoreTag).
const sharedRegionTag = mem.Block(1) << 43

// sharedBlockOf lays out a shared-region dense id: the same chunk-scatter
// the private footprints get (tag diversity for the partial-tag designs),
// offset into the shared address space.
func sharedBlockOf(id uint64) mem.Block {
	return layout(id) | sharedRegionTag
}

// redirectSeedMix decorrelates the redirect-decision RNG from the inner
// stream's RNG, which is seeded from the same per-core seed.
const redirectSeedMix = 0x5851f42d4c957f2d

// Sharing pattern constants: migratory bursts are long enough for the
// ownership transfer (invalidate + writeback) to amortize over several
// reuses, as migratory data behaves; the read-mostly store fraction is
// small but nonzero so invalidations still occur.
const (
	migratoryBurst      = 64
	migratoryStoreFrac  = 0.5
	readMostlyStoreFrac = 0.02
)

// pattern is the parsed SharingSpec.Pattern.
type pattern uint8

const (
	patternPrivate pattern = iota
	patternProducerConsumer
	patternMigratory
	patternReadMostly
)

func parsePattern(name string) pattern {
	switch name {
	case "producer-consumer":
		return patternProducerConsumer
	case "migratory":
		return patternMigratory
	case "read-mostly":
		return patternReadMostly
	default:
		return patternPrivate
	}
}

// CMPStream is one core's instruction stream in an N-core CMP run: the
// benchmark Generator striped into the core's private address space, with
// an optional fraction of references redirected into a region shared by
// every core. It implements cpu.Source plus the scalar reference Next; the
// redirect decisions draw from a dedicated RNG, one draw per memory
// operation in stream order, so the scalar, batched, and warm-mode paths
// stay bit-identical.
type CMPStream struct {
	g    *Generator
	rng  *prng
	core int
	tag  mem.Block

	pat          pattern
	redirectT    uint64 // f64Threshold(SharedFrac)
	storeT       uint64 // redirected-ref store threshold (migratory/read-mostly)
	producer     bool   // producer-consumer: this core writes
	sharedBlocks uint64
	shDiv        invDiv

	// Pattern phase state (captured by State).
	seq       uint64
	burstBase uint64
	burstLeft int

	counters struct {
		sharedRefs, sharedStores uint64
	}
}

// NewCMPStream builds core `core`'s stream for an N-core run of spec,
// seeded from the run seed (each core derives its own via CMPSeed). The
// SharingSpec must have been validated.
func NewCMPStream(spec Spec, seed int64, core int, sh SharingSpec) *CMPStream {
	sh = sh.Normalize()
	cs := &CMPStream{
		g:        New(spec, CMPSeed(seed, core)),
		rng:      newPRNG(CMPSeed(seed, core) ^ redirectSeedMix),
		core:     core,
		tag:      CoreTag(core),
		pat:      parsePattern(sh.Pattern),
		producer: core%2 == 0,
	}
	if cs.pat != patternPrivate {
		cs.redirectT = f64Threshold(sh.SharedFrac)
		cs.sharedBlocks = max64(uint64(sh.SharedMB*blocksPerMB), 1)
		cs.shDiv = newInvDiv(cs.sharedBlocks)
		switch cs.pat {
		case patternMigratory:
			cs.storeT = f64Threshold(migratoryStoreFrac)
		case patternReadMostly:
			cs.storeT = f64Threshold(readMostlyStoreFrac)
		}
	}
	return cs
}

// Generator exposes the inner striped generator (tests and reporting).
func (cs *CMPStream) Generator() *Generator { return cs.g }

// mapRef maps one inner memory reference into the CMP address space: with
// probability SharedFrac it becomes a shared-region reference shaped by
// the pattern, otherwise the core's private-stripe tag is applied. Exactly
// one redirect draw per memory operation, in stream order.
func (cs *CMPStream) mapRef(b mem.Block, isStore bool) (mem.Block, bool) {
	if cs.pat != patternPrivate && cs.rng.Uint64()>>11 < cs.redirectT {
		return cs.sharedRef()
	}
	return b | cs.tag, isStore
}

// sharedRef draws the next shared-region reference for the pattern.
func (cs *CMPStream) sharedRef() (mem.Block, bool) {
	var id uint64
	var isStore bool
	switch cs.pat {
	case patternProducerConsumer:
		// Sequential walk over the shared region: producers (even cores)
		// write it, consumers read it — the classic one-way flow whose
		// stores invalidate every consumer copy.
		cs.seq++
		if cs.seq >= cs.sharedBlocks {
			cs.seq = 0
		}
		id, isStore = cs.seq, cs.producer
	case patternMigratory:
		// Read-modify-write bursts over a random window: ownership of the
		// touched blocks migrates to the bursting core, ping-ponging M
		// copies between cores.
		if cs.burstLeft <= 0 {
			cs.burstBase = cs.shDiv.mod(cs.rng.Uint64())
			cs.burstLeft = migratoryBurst
		}
		id = cs.burstBase + uint64(migratoryBurst-cs.burstLeft)
		if id >= cs.sharedBlocks {
			id -= cs.sharedBlocks
		}
		cs.burstLeft--
		isStore = cs.rng.Uint64()>>11 < cs.storeT
	default: // read-mostly
		id = cs.shDiv.mod(cs.rng.Uint64())
		isStore = cs.rng.Uint64()>>11 < cs.storeT
	}
	cs.counters.sharedRefs++
	if isStore {
		cs.counters.sharedStores++
	}
	return sharedBlockOf(id), isStore
}

// Next returns the next instruction: the scalar reference the batched
// methods are tested against.
func (cs *CMPStream) Next() cpu.Instr {
	in := cs.g.Next()
	if in.IsMem {
		in.Block, in.IsStore = cs.mapRef(in.Block, in.IsStore)
	}
	return in
}

// NextBatch implements cpu.Source: the inner generator fills the
// batch, then each memory operation is mapped in order — the identical
// draw sequence Next produces.
func (cs *CMPStream) NextBatch(buf []cpu.Instr) int {
	n := cs.g.NextBatch(buf)
	for i := range buf[:n] {
		if buf[i].IsMem {
			buf[i].Block, buf[i].IsStore = cs.mapRef(buf[i].Block, buf[i].IsStore)
		}
	}
	return n
}

// NextMems implements cpu.Source, keeping the warm fast path for CMP
// streams: the inner fused kernel materializes the memory operations, then
// each is mapped in order (one redirect draw per ref, as in Next).
func (cs *CMPStream) NextMems(buf []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	n, consumed = cs.g.NextMems(buf, maxInstr)
	for i := range buf[:n] {
		buf[i].Block, buf[i].Store = cs.mapRef(buf[i].Block, buf[i].Store)
	}
	return n, consumed
}

// CMPState is a CMPStream's complete stream position: the inner
// generator's state plus the redirect RNG and pattern phase. Fields are
// exported for gob encoding by the on-disk checkpoint store.
type CMPState struct {
	Gen       State
	RNG       [4]uint64
	Seq       uint64
	BurstBase uint64
	BurstLeft int
}

// State captures the stream position.
func (cs *CMPStream) State() CMPState {
	return CMPState{
		Gen:       cs.g.State(),
		RNG:       cs.rng.state(),
		Seq:       cs.seq,
		BurstBase: cs.burstBase,
		BurstLeft: cs.burstLeft,
	}
}

// SetState restores a position captured by State on a stream built with
// the same spec, core, and sharing parameters.
func (cs *CMPStream) SetState(st CMPState) {
	cs.g.SetState(st.Gen)
	cs.rng.setState(st.RNG)
	cs.seq = st.Seq
	cs.burstBase = st.BurstBase
	cs.burstLeft = st.BurstLeft
}

// Reseed reseeds the inner stream and the redirect RNG from the base run
// seed (per-core derivation as at construction), keeping the phase
// variables — the CMP counterpart of Generator.Reseed for seed sweeps.
func (cs *CMPStream) Reseed(seed int64) {
	cs.g.Reseed(CMPSeed(seed, cs.core))
	cs.rng.reseed(CMPSeed(seed, cs.core) ^ redirectSeedMix)
}

// ResetCounters zeroes the observation counters (inner and shared).
func (cs *CMPStream) ResetCounters() {
	cs.g.ResetCounters()
	cs.counters = struct{ sharedRefs, sharedStores uint64 }{}
}

// RegisterMetricsPrefixed publishes the stream's counters under
// prefix+"workload.": the inner generator's set plus the shared-region
// tallies. Note the inner mem_ops/stores counters describe the
// pre-redirect stream (the redirect replaces a reference's target and
// store flag after the inner draw); shared_refs/shared_stores count the
// redirected subset.
func (cs *CMPStream) RegisterMetricsPrefixed(r *metrics.Registry, prefix string) {
	cs.g.RegisterMetricsPrefixed(r, prefix)
	r.CounterFunc(prefix+"workload.shared_refs", func() uint64 { return cs.counters.sharedRefs })
	r.CounterFunc(prefix+"workload.shared_stores", func() uint64 { return cs.counters.sharedStores })
}

// RegisterMetricsSum publishes summed stream counters over all cores under
// the plain "workload." names, alongside the per-core prefixed sets.
func RegisterMetricsSum(r *metrics.Registry, streams []*CMPStream) {
	sum := func(read func(*CMPStream) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, cs := range streams {
				n += read(cs)
			}
			return n
		}
	}
	r.CounterFunc("workload.mem_ops", sum(func(cs *CMPStream) uint64 { return cs.g.counters.memOps }))
	r.CounterFunc("workload.stores", sum(func(cs *CMPStream) uint64 { return cs.g.counters.stores }))
	r.CounterFunc("workload.mispredicts", sum(func(cs *CMPStream) uint64 { return cs.g.counters.mispredicts }))
	r.CounterFunc("workload.l1_refs", sum(func(cs *CMPStream) uint64 { return cs.g.counters.l1Refs }))
	r.CounterFunc("workload.hot_refs", sum(func(cs *CMPStream) uint64 { return cs.g.counters.hotRefs }))
	r.CounterFunc("workload.stream_refs", sum(func(cs *CMPStream) uint64 { return cs.g.counters.streamRefs }))
	r.CounterFunc("workload.recent_refs", sum(func(cs *CMPStream) uint64 { return cs.g.counters.recentRefs }))
	r.CounterFunc("workload.cold_refs", sum(func(cs *CMPStream) uint64 { return cs.g.counters.coldRefs }))
	r.CounterFunc("workload.shared_refs", sum(func(cs *CMPStream) uint64 { return cs.counters.sharedRefs }))
	r.CounterFunc("workload.shared_stores", sum(func(cs *CMPStream) uint64 { return cs.counters.sharedStores }))
}

// PreWarm installs the core's striped footprint functionally, exactly as
// Generator.PreWarm does for the single-core stream but with the private
// stripe tag applied to every block. The shared region is not pre-warmed:
// it is established by the trace warm-up, like any recency state.
func (cs *CMPStream) PreWarm(c l2.Cache) {
	cs.g.PreWarm(&tagL2{inner: c, tag: cs.tag})
}

// tagL2 is the warm-path shim that applies a stripe tag to every install.
// It forwards bulk installs through the inner design's Warmer when one is
// available, preserving the batched delivery protocol.
type tagL2 struct {
	inner l2.Cache
	tag   mem.Block
	buf   []mem.Block
}

func (t *tagL2) Warm(b mem.Block)          { t.inner.Warm(b | t.tag) }
func (t *tagL2) Contains(b mem.Block) bool { return t.inner.Contains(b | t.tag) }

func (t *tagL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	req.Block |= t.tag
	return t.inner.Access(at, req)
}

// WarmBulk implements l2.Warmer: tag into a reusable buffer, then forward.
func (t *tagL2) WarmBulk(blocks []mem.Block) {
	if cap(t.buf) < len(blocks) {
		t.buf = make([]mem.Block, len(blocks))
	}
	t.buf = t.buf[:len(blocks)]
	for i, b := range blocks {
		t.buf[i] = b | t.tag
	}
	l2.WarmAll(t.inner, t.buf)
}
