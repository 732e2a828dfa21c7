package machine

import (
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/nuca"
	"tlc/internal/sim"
	"tlc/internal/workload"
)

// sliceStream replays a fixed instruction sequence, looping.
type sliceStream struct {
	ins []cpu.Instr
	pos int
}

func (s *sliceStream) Next() cpu.Instr {
	in := s.ins[s.pos%len(s.ins)]
	s.pos++
	return in
}

// NextBatch and NextMems deliver the Next sequence one call at a time.
func (s *sliceStream) NextBatch(buf []cpu.Instr) int {
	for i := range buf {
		buf[i] = s.Next()
	}
	return len(buf)
}

func (s *sliceStream) NextMems(buf []cpu.MemRef, maxInstr uint64) (n int, consumed uint64) {
	for consumed < maxInstr && n < len(buf) {
		in := s.Next()
		consumed++
		if in.IsMem {
			buf[n] = cpu.MemRef{Block: in.Block, Store: in.IsStore}
			n++
		}
	}
	return n, consumed
}

func load(b mem.Block) cpu.Instr  { return cpu.Instr{IsMem: true, Block: b} }
func store(b mem.Block) cpu.Instr { return cpu.Instr{IsMem: true, IsStore: true, Block: b} }

// buildCMP assembles an n-core machine over a fresh SNUCA design with the
// given per-core streams.
func buildCMP(t *testing.T, n int, streams []cpu.Source) (*Machine, *Shared, *metrics.Registry) {
	t.Helper()
	sys := config.DefaultSystem()
	inst := nuca.NewSNUCA(sys.MemoryLatency)
	shd := NewShared(inst, n)
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(sys, shd.Port(i))
	}
	shd.Attach(cores)
	return New(cores, streams, shd), shd, inst.Metrics()
}

// TestSingleCoreMachineMatchesCore pins the N=1 machine arm: a one-core
// Machine (nil Shared) produces bit-identical results to driving the core
// directly — Warm then Run, the legacy sequence.
func TestSingleCoreMachineMatchesCore(t *testing.T) {
	sys := config.DefaultSystem()
	spec, _ := workload.SpecByName("gcc")
	const warm, run = 100_000, 50_000

	ref := nuca.NewSNUCA(sys.MemoryLatency)
	refCore := cpu.New(sys, ref)
	refGen := workload.New(spec, 7)
	refCore.Warm(refGen, warm)
	want := refCore.Run(refGen, run)

	inst := nuca.NewSNUCA(sys.MemoryLatency)
	core := cpu.New(sys, inst)
	gen := workload.New(spec, 7)
	m := New([]*cpu.Core{core}, []cpu.Source{gen}, nil)
	m.Warm(warm)
	got := m.Run(run)

	if got != want {
		t.Fatalf("single-core machine result %+v != direct core result %+v", got, want)
	}
	if m.Clock() != want.Cycles {
		t.Fatalf("machine clock %d != result cycles %d", m.Clock(), want.Cycles)
	}
}

// TestMSIProtocol drives the directory through the three MSI transitions
// and checks the traffic counters and L1 side effects.
func TestMSIProtocol(t *testing.T) {
	b := mem.Block(0x1234)
	streams := []cpu.Source{
		&sliceStream{ins: []cpu.Instr{load(b)}},
		&sliceStream{ins: []cpu.Instr{load(b)}},
	}
	m, shd, reg := buildCMP(t, 2, streams)
	shd.RegisterMetrics(reg)

	// Both cores read the block: two BusRds, two sharers, no owner.
	m.cores[0].Warm(streams[0], 1)
	m.cores[1].Warm(streams[1], 1)
	shd.SeedDirectory()
	if got := shd.DirEntries(); got != 1 {
		t.Fatalf("directory entries after seeding = %d, want 1", got)
	}
	snap := shd.DirectorySnapshot()
	if len(snap) != 1 || snap[0].Sharers != 0b11 || snap[0].Owner != 0 {
		t.Fatalf("seeded entry = %+v, want sharers=0b11 owner=0", snap[0])
	}

	// Core 0 writes: BusRdX invalidates core 1's clean copy.
	shd.StoreNotify(0, b)
	if got := reg.CounterValue("coh.invalidations"); got != 1 {
		t.Fatalf("invalidations after BusRdX = %d, want 1", got)
	}
	snap = shd.DirectorySnapshot()
	if snap[0].Sharers != 0b01 || snap[0].Owner != 1 {
		t.Fatalf("entry after BusRdX = %+v, want sharers=0b01 owner=1", snap[0])
	}
	if present, _ := m.cores[1].Invalidate(b); present {
		t.Fatal("core 1 still holds the block after a remote BusRdX")
	}
	// A second store by the owner is the silent upgrade hit.
	shd.StoreNotify(0, b)
	if got := reg.CounterValue("coh.invalidations"); got != 1 {
		t.Fatalf("owner store caused invalidations: %d", got)
	}

	// Core 1 reads it back: BusRd downgrades core 0's M copy, charging a
	// coherence writeback; both end up sharers. (The store warm marks core
	// 0's L1 line dirty — timed stores retire in the L1, so the directory's
	// dirty knowledge lives in the core's dirty bits.)
	m.cores[0].Warm(&sliceStream{ins: []cpu.Instr{store(b)}}, 1)
	shd.busRd(sim.Time(100), b, 1)
	if got := reg.CounterValue("coh.downgrades"); got != 1 {
		t.Fatalf("downgrades after BusRd on M = %d, want 1", got)
	}
	if got := reg.CounterValue("coh.writebacks"); got != 1 {
		t.Fatalf("writebacks after downgrade = %d, want 1", got)
	}
	snap = shd.DirectorySnapshot()
	if snap[0].Sharers != 0b11 || snap[0].Owner != 0 {
		t.Fatalf("entry after downgrade = %+v, want sharers=0b11 owner=0", snap[0])
	}
	if _, dirty := m.cores[0].Downgrade(b); dirty {
		t.Fatal("core 0's copy still dirty after downgrade")
	}
}

// TestDirectorySnapshotRoundTrip pins capture/restore: a restored
// directory is indistinguishable from the original, and the snapshot is
// sorted by block for deterministic encoding.
func TestDirectorySnapshotRoundTrip(t *testing.T) {
	blocks := []mem.Block{0x30, 0x10, 0x20}
	ins := make([]cpu.Instr, 0, 4)
	for _, b := range blocks {
		ins = append(ins, load(b))
	}
	ins = append(ins, store(0x40))
	streams := []cpu.Source{
		&sliceStream{ins: ins},
		&sliceStream{ins: []cpu.Instr{load(0x10)}},
	}
	_, shd, _ := buildCMP(t, 2, streams)
	shd.cores[0].Warm(streams[0], len64(ins))
	shd.cores[1].Warm(streams[1], 1)
	shd.SeedDirectory()

	snap := shd.DirectorySnapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Block >= snap[i].Block {
			t.Fatalf("snapshot not sorted: %v before %v", snap[i-1].Block, snap[i].Block)
		}
	}

	other := NewShared(nuca.NewSNUCA(config.DefaultSystem().MemoryLatency), 2)
	other.RestoreDirectory(snap)
	if again := other.DirectorySnapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatalf("restored snapshot differs:\n got %+v\nwant %+v", again, snap)
	}
}

func len64(ins []cpu.Instr) uint64 { return uint64(len(ins)) }

// TestAccessDoesNotAllocate extends the designs' zero-alloc pin to the CMP
// hot path: N-core port injection, frontier arbitration, and the MSI
// directory lookup on both the BusRd and BusRdX sides, over a fixed
// post-warm working set (steady state touches only existing map keys).
func TestAccessDoesNotAllocate(t *testing.T) {
	const n = 4
	blocks := make([]mem.Block, 256)
	ins := make([]cpu.Instr, len(blocks))
	for i := range blocks {
		blocks[i] = mem.Block(i * 65)
		ins[i] = load(blocks[i])
	}
	streams := make([]cpu.Source, n)
	for i := range streams {
		streams[i] = &sliceStream{ins: ins}
	}
	m, shd, _ := buildCMP(t, n, streams)
	for i, c := range m.cores {
		c.Warm(streams[i], uint64(len(ins)))
	}
	shd.SeedDirectory()

	at := make([]sim.Time, n)
	access := func() {
		for i, b := range blocks {
			core := i % n
			req := mem.Request{Block: b, Type: mem.Load, Core: core}
			if i%8 == 7 {
				// The BusRdX path: invalidations sweep the other cores'
				// sharer bits and rewrite an existing directory entry.
				shd.StoreNotify(core, b)
				continue
			}
			out := shd.access(at[core], req, core)
			if out.CompleteAt > at[core] {
				at[core] = out.CompleteAt
			}
			at[core]++
		}
	}
	// Steady the reusable state (resource calendars, directory keys)
	// before measuring.
	for i := 0; i < 50; i++ {
		access()
	}
	if allocs := testing.AllocsPerRun(50, access); allocs != 0 {
		t.Errorf("%.2f allocs per CMP access burst, want 0", allocs)
	}
}

// TestInterleaveAdvancesAllCores checks the CMP event loop executes the
// requested instruction count on every core and keeps their clocks within
// the machine's finish time.
func TestInterleaveAdvancesAllCores(t *testing.T) {
	spec, _ := workload.SpecByName("gcc")
	const n = 3
	streams := make([]cpu.Source, n)
	for i := range streams {
		streams[i] = workload.NewCMPStream(spec, 11, i, workload.SharingSpec{})
	}
	m, _, _ := buildCMP(t, n, streams)
	m.Warm(20_000)
	const run = 30_000
	res := m.Run(run)
	if res.Instructions != n*run {
		t.Fatalf("machine executed %d instructions, want %d", res.Instructions, n*run)
	}
	if res.Cycles != m.Clock() {
		t.Fatalf("result cycles %d != machine clock %d", res.Cycles, m.Clock())
	}
	for i, c := range m.clocks {
		if c == 0 || c > res.Cycles {
			t.Fatalf("core %d clock %d outside (0, %d]", i, c, res.Cycles)
		}
	}
	// Determinism: an identical machine replays to the identical result.
	streams2 := make([]cpu.Source, n)
	for i := range streams2 {
		streams2[i] = workload.NewCMPStream(spec, 11, i, workload.SharingSpec{})
	}
	m2, _, _ := buildCMP(t, n, streams2)
	m2.Warm(20_000)
	if res2 := m2.Run(run); res2 != res {
		t.Fatalf("replay diverged: %+v vs %+v", res2, res)
	}
}
