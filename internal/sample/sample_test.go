package sample

import (
	"math"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/mem"
	"tlc/internal/sim"
	"tlc/internal/workload"
)

// fixedL2 answers every access with a fixed latency.
type fixedL2 struct{ lat sim.Time }

func (f *fixedL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	if req.Type == mem.Store {
		return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at}
	}
	return l2.Outcome{Hit: true, ResolveAt: at + f.lat, CompleteAt: at + f.lat, BanksAccessed: 1}
}
func (f *fixedL2) Warm(mem.Block)          {}
func (f *fixedL2) Contains(mem.Block) bool { return true }

// oneCore is the one-core machine over core and s that sampled runs drive.
func oneCore(core *cpu.Core, s cpu.Source) *machine.Machine {
	return machine.New([]*cpu.Core{core}, []cpu.Source{s}, nil)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		opt   Options
		total uint64
		ok    bool
	}{
		{Options{Intervals: 10, Length: 1000}, 100_000, true},
		{Options{Intervals: 10, Length: 10_000}, 100_000, true}, // exactly full coverage
		{Options{Intervals: 10, Length: 10_001}, 100_000, false},
		{Options{Intervals: 0, Length: 1000}, 100_000, false},
		{Options{Intervals: 4, Length: 0}, 100_000, false},
	}
	for _, c := range cases {
		err := c.opt.Validate(c.total)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v, %d) = %v, want ok=%v", c.opt, c.total, err, c.ok)
		}
	}
	if (Options{}).Enabled() {
		t.Error("zero Options reports sampling enabled")
	}
	if !(Options{Intervals: 1, Length: 1}).Enabled() {
		t.Error("non-zero Options reports sampling disabled")
	}
}

func TestRunAdvancesStreamExactlyTotal(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	const total = 200_000
	opt := Options{Intervals: 7, Length: 3_000}
	// Two identical generators: one driven by the sampled run, one advanced
	// total instructions directly. They must end at the same stream
	// position regardless of the fast-forward remainder distribution.
	g1 := workload.New(spec, 1)
	g2 := workload.New(spec, 1)
	core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	RunTarget(oneCore(core, g1), total, opt, nil)
	for i := 0; i < total; i++ {
		g2.Next()
	}
	if g1.State() != g2.State() {
		t.Fatal("sampled run advanced the stream a different number of instructions than a full run")
	}
}

func TestRunIntervalsAreContiguousAndObserved(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	opt := Options{Intervals: 5, Length: 2_000}
	core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	g := workload.New(spec, 2)
	var seen []Interval
	var lastFinish sim.Time
	est := RunTarget(oneCore(core, g), 100_000, opt, func(iv Interval) {
		if iv.Result.Cycles-iv.Cycles != lastFinish {
			t.Fatalf("interval %d started at %d, previous finished at %d",
				iv.Index, iv.Result.Cycles-iv.Cycles, lastFinish)
		}
		lastFinish = iv.Result.Cycles
		seen = append(seen, iv)
	})
	if len(seen) != opt.Intervals {
		t.Fatalf("observer called %d times, want %d", len(seen), opt.Intervals)
	}
	if est.FinalClock != lastFinish {
		t.Fatalf("FinalClock %d, last interval finished at %d", est.FinalClock, lastFinish)
	}
	if est.Detailed != uint64(opt.Intervals)*opt.Length {
		t.Fatalf("Detailed = %d, want %d", est.Detailed, uint64(opt.Intervals)*opt.Length)
	}
	if n := est.CPI.N(); n != uint64(opt.Intervals) {
		t.Fatalf("CPI sample has %d observations, want %d", n, opt.Intervals)
	}
}

func TestEstimateScalesCPIToTotal(t *testing.T) {
	// Against a uniform machine (fixed-latency L2, L1-resident stream) the
	// per-interval CPI is nearly constant, so the estimate must land within
	// a fraction of a percent of a full detailed run, with a tiny CI.
	spec, _ := workload.SpecByName("oltp")
	const total = 400_000
	sampled := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	sg := workload.New(spec, 3)
	sampled.Warm(sg, 100_000)
	est := RunTarget(oneCore(sampled, sg), total, Options{Intervals: 10, Length: 4_000}, nil)

	full := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	fg := workload.New(spec, 3)
	full.Warm(fg, 100_000)
	want := full.Run(fg, total)

	rel := math.Abs(est.Cycles()-float64(want.Cycles)) / float64(want.Cycles)
	if rel > 0.03 {
		t.Fatalf("sampled estimate %.0f vs full %d cycles: %.1f%% error", est.Cycles(), want.Cycles, 100*rel)
	}
	if ci := est.CyclesCI(); ci < 0 || ci > 0.2*est.Cycles() {
		t.Fatalf("confidence interval ±%.0f implausible for estimate %.0f", ci, est.Cycles())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec, _ := workload.SpecByName("apache")
	opt := Options{Intervals: 6, Length: 2_500}
	one := func() Estimate {
		core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 21})
		g := workload.New(spec, 9)
		core.Warm(g, 50_000)
		return RunTarget(oneCore(core, g), 150_000, opt, nil)
	}
	a, b := one(), one()
	if a != b {
		t.Fatalf("identical sampled runs diverged: %+v vs %+v", a, b)
	}
}
