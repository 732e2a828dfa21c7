package cpu

import (
	"testing"

	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestSnapshotRestoreReproducesRun(t *testing.T) {
	// A core restored from another core's post-warm snapshot must time an
	// identical stream identically: the snapshot carries every piece of
	// state Run depends on (L1 contents + dirty bits).
	mk := func() Source {
		var ins []Instr
		for i := 0; i < 96; i++ {
			ins = append(ins, Instr{IsMem: true, Block: mem.Block(i * 7), IsStore: i%5 == 0})
			ins = append(ins, Instr{Dep: true}, Instr{Mispredict: i%16 == 0})
		}
		return &listStream{ins: ins}
	}
	warm := New(config.DefaultSystem(), &fixedL2{lat: 13})
	warm.Warm(mk(), 20_000)
	st := warm.Snapshot()
	want := warm.Run(mk(), 30_000)

	restored := New(config.DefaultSystem(), &fixedL2{lat: 13})
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	got := restored.Run(mk(), 30_000)
	if got != want {
		t.Fatalf("restored core: %+v, warmed core: %+v", got, want)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	core := New(config.DefaultSystem(), &fixedL2{lat: 13})
	core.Warm(&uniqueLoads{}, 10_000)
	st := core.Snapshot()
	occ := 0
	for _, d := range st.Dirty {
		if d {
			occ++
		}
	}
	// Running the core further must not change the captured snapshot.
	core.Run(&uniqueLoads{dep: true}, 10_000)
	after := 0
	for _, d := range st.Dirty {
		if d {
			after++
		}
	}
	if occ != after {
		t.Fatal("running the core mutated a captured snapshot")
	}
}

func TestRestoreRejectsMismatchedGeometry(t *testing.T) {
	small := config.DefaultSystem()
	small.L1Bytes /= 2
	st := New(small, &fixedL2{lat: 13}).Snapshot()
	if err := New(config.DefaultSystem(), &fixedL2{lat: 13}).Restore(st); err == nil {
		t.Fatal("restore accepted a snapshot from a smaller L1")
	}
}

func TestRunFromShiftsTimingByBase(t *testing.T) {
	// Against a stateless L2, RunFrom(base) must produce exactly Run()'s
	// cycles plus the base offset: the pipeline model is time-invariant.
	mk := func() Source {
		var ins []Instr
		for i := 0; i < 48; i++ {
			ins = append(ins, Instr{IsMem: true, Block: mem.Block(i)})
			ins = append(ins, Instr{Dep: true}, Instr{Mispredict: i%8 == 0})
		}
		return &listStream{ins: ins}
	}
	const base = sim.Time(1_000_000)
	a := New(config.DefaultSystem(), &fixedL2{lat: 13})
	a.Warm(mk(), 5_000)
	plain := a.Run(mk(), 20_000)

	b := New(config.DefaultSystem(), &fixedL2{lat: 13})
	b.Warm(mk(), 5_000)
	shifted := b.RunFrom(mk(), 20_000, base)
	if shifted.Cycles != plain.Cycles+base {
		t.Fatalf("RunFrom(base=%d) finished at %d, want %d", base, shifted.Cycles, plain.Cycles+base)
	}
	if shifted.L2Loads != plain.L2Loads || shifted.L1DHits != plain.L1DHits {
		t.Fatalf("RunFrom changed event counts: %+v vs %+v", shifted, plain)
	}
}

func TestRunFromContinuesMonotone(t *testing.T) {
	// Consecutive RunFrom intervals must hand the L2 non-decreasing access
	// times even across the reset between intervals.
	probe := &monotoneL2{}
	core := New(config.DefaultSystem(), probe)
	s := &uniqueLoads{}
	var base sim.Time
	for i := 0; i < 4; i++ {
		r := core.RunFrom(s, 5_000, base)
		if r.Cycles < base {
			t.Fatalf("interval %d finished at %d, before its base %d", i, r.Cycles, base)
		}
		base = r.Cycles
	}
	if probe.violations != 0 {
		t.Fatalf("%d non-monotone L2 access times across intervals", probe.violations)
	}
}

func TestResumeMatchesContiguousRun(t *testing.T) {
	// RunFrom followed by Resume must be cycle-identical to one contiguous
	// run: the pipeline state (retire/scheduler rings, MSHRs, fetch
	// frontier) carries across the boundary, so chunked detailed execution
	// introduces no transient at all.
	mk := func() Source {
		var ins []Instr
		for i := 0; i < 64; i++ {
			ins = append(ins, Instr{IsMem: true, Block: mem.Block(i * 3), IsStore: i%7 == 0})
			ins = append(ins, Instr{Dep: i%2 == 0}, Instr{Mispredict: i%10 == 0})
		}
		return &listStream{ins: ins}
	}
	a := New(config.DefaultSystem(), &fixedL2{lat: 13})
	a.Warm(mk(), 5_000)
	want := a.Run(mk(), 40_000)

	b := New(config.DefaultSystem(), &fixedL2{lat: 13})
	b.Warm(mk(), 5_000)
	s := mk()
	first := b.RunFrom(s, 15_000, 0)
	second := b.Resume(s, 25_000)
	if second.Cycles != want.Cycles {
		t.Fatalf("chunked run finished at %d, contiguous at %d", second.Cycles, want.Cycles)
	}
	if got := first.L2Loads + second.L2Loads; got != want.L2Loads {
		t.Fatalf("chunked runs saw %d L2 loads, contiguous %d", got, want.L2Loads)
	}
	if got := first.L1DHits + second.L1DHits; got != want.L1DHits {
		t.Fatalf("chunked runs saw %d L1 hits, contiguous %d", got, want.L1DHits)
	}
	if first.Cycles > second.Cycles {
		t.Fatalf("resumed interval finished at %d, before the first interval's %d", second.Cycles, first.Cycles)
	}
}

func TestResumeAcrossWarmIsMonotone(t *testing.T) {
	// The sampled-execution pattern: functional Warm stretches between
	// resumed detailed intervals. Access times handed to the L2 must stay
	// non-decreasing throughout.
	probe := &monotoneL2{}
	core := New(config.DefaultSystem(), probe)
	s := &uniqueLoads{}
	last := core.RunFrom(s, 5_000, 0)
	for i := 0; i < 4; i++ {
		core.Warm(s, 20_000)
		r := core.Resume(s, 5_000)
		if r.Cycles < last.Cycles {
			t.Fatalf("interval %d finished at %d, before the previous finish %d", i, r.Cycles, last.Cycles)
		}
		last = r
	}
	if probe.violations != 0 {
		t.Fatalf("%d non-monotone L2 access times across resumed intervals", probe.violations)
	}
}

// monotoneL2 records violations of non-decreasing access times.
type monotoneL2 struct {
	last       sim.Time
	violations int
}

func (m *monotoneL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	if at < m.last {
		m.violations++
	}
	m.last = at
	return l2.Outcome{Hit: true, ResolveAt: at + 20, CompleteAt: at + 20}
}
func (m *monotoneL2) Warm(mem.Block)          {}
func (m *monotoneL2) Contains(mem.Block) bool { return true }
