package sample

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlc/internal/cpu"
	"tlc/internal/sim"
)

// TestValidatePhase pins the phase-mode field checks and, because callers
// see these messages verbatim when a flag combination is wrong, that each
// error names the offending field.
func TestValidatePhase(t *testing.T) {
	cases := []struct {
		name  string
		opt   Options
		total uint64
		field string // empty = valid
	}{
		{"valid", Options{PhaseWindows: 40, PhaseClusters: 14}, 200_000, ""},
		{"one window one cluster", Options{PhaseWindows: 1, PhaseClusters: 1}, 10, ""},
		{"mixed with uniform", Options{Intervals: 5, PhaseWindows: 40, PhaseClusters: 14}, 200_000, "Intervals=5"},
		{"clusters without windows", Options{PhaseClusters: 14}, 200_000, "PhaseWindows=0"},
		{"windows without clusters", Options{PhaseWindows: 40}, 200_000, "PhaseClusters=0"},
		{"more clusters than windows", Options{PhaseWindows: 8, PhaseClusters: 9}, 200_000, "PhaseClusters=9"},
		{"more windows than instructions", Options{PhaseWindows: 11, PhaseClusters: 2}, 10, "PhaseWindows=11"},
		// Length is a uniform-mode knob: phase mode times whole windows, so
		// any Length must be ignored, not rejected.
		{"length is ignored in phase mode", Options{PhaseWindows: 40, PhaseClusters: 14, Length: 1 << 60}, 200_000, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opt.Validate(c.total)
			if c.field == "" {
				if err != nil {
					t.Fatalf("Validate(%+v, %d) = %v, want nil", c.opt, c.total, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%+v, %d) = nil, want error naming %s", c.opt, c.total, c.field)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name %s", err, c.field)
			}
		})
	}
}

func TestWindowLengths(t *testing.T) {
	cases := []struct {
		total uint64
		n     int
	}{
		{200_000, 40}, // even split
		{200_000, 48}, // remainder 32 spread over the first windows
		{10, 3},
		{7, 7},
	}
	for _, c := range cases {
		lens := WindowLengths(c.total, c.n)
		if len(lens) != c.n {
			t.Fatalf("WindowLengths(%d, %d): %d windows", c.total, c.n, len(lens))
		}
		var sum uint64
		for i, l := range lens {
			sum += l
			// Remainder spreads front-to-back one instruction at a time, so
			// lengths are non-increasing and differ by at most one.
			if l > lens[0] || lens[0]-l > 1 {
				t.Errorf("WindowLengths(%d, %d)[%d] = %d, first = %d: not a ±1 split",
					c.total, c.n, i, l, lens[0])
			}
		}
		if sum != c.total {
			t.Errorf("WindowLengths(%d, %d) sums to %d", c.total, c.n, sum)
		}
	}
}

// phaseFixture builds a feature matrix with three obviously separable
// phases so clustering behavior is predictable.
func phaseFixture(windows int) ([][]float64, []uint64, uint64) {
	feats := make([][]float64, windows)
	instr := make([]uint64, windows)
	var total uint64
	for w := range feats {
		base := float64(w % 3) // three interleaved phases
		feats[w] = []float64{base, base * 2, 0.1 * base, 0, 1 + base}
		instr[w] = 5000
		total += 5000
	}
	return feats, instr, total
}

// buildProfile is BuildProfile without cancellation, failing the test on
// an error.
func buildProfile(t *testing.T, key string, total uint64, opt Options, feats [][]float64, instr []uint64) Profile {
	t.Helper()
	p, err := BuildProfile(key, total, opt, feats, instr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildProfileHonoursCancel: clustering 20 000 windows into 20 000
// clusters — an input validation accepts — stops at the cancel hook's first
// error, whether the hook fails at once or part-way through seeding.
func TestBuildProfileHonoursCancel(t *testing.T) {
	const n = 20_000
	feats := make([][]float64, n)
	instr := make([]uint64, n)
	for i := range feats {
		feats[i] = []float64{float64(i % 97), float64(i % 89), float64(i)}
		instr[i] = 1
	}
	opt := Options{PhaseWindows: n, PhaseClusters: n}
	stop := errors.New("stop")
	for _, after := range []int{0, 500} {
		polls := 0
		cancel := func() error {
			if polls++; polls > after {
				return stop
			}
			return nil
		}
		start := time.Now()
		if _, err := BuildProfile("k", n, opt, feats, instr, cancel); !errors.Is(err, stop) {
			t.Fatalf("cancel after %d polls: err %v, want the hook's error", after, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("cancel after %d polls took %v", after, d)
		}
	}
}

func TestBuildProfileDeterministicAndValid(t *testing.T) {
	feats, instr, total := phaseFixture(40)
	opt := Options{PhaseWindows: 40, PhaseClusters: 14}
	a := buildProfile(t, "content-key", total, opt, feats, instr)
	b := buildProfile(t, "content-key", total, opt, feats, instr)
	if !reflect.DeepEqual(a, b) {
		t.Error("BuildProfile is not deterministic for a fixed key")
	}
	if err := a.Check(total, opt); err != nil {
		t.Fatalf("fresh profile fails its own Check: %v", err)
	}
	var wsum uint64
	for _, w := range a.Weights {
		wsum += w
	}
	if wsum != total {
		t.Errorf("cluster weights sum to %d, want %d", wsum, total)
	}
	for k, rep := range a.Reps {
		if a.Assign[rep] != k {
			t.Errorf("representative %d not assigned to its own cluster %d", rep, k)
		}
	}
	// Three genuinely distinct feature rows: compaction must leave at
	// most three clusters even though 14 were requested.
	if len(a.Reps) > 3 {
		t.Errorf("%d clusters survive for 3 distinct phases", len(a.Reps))
	}
}

func TestProfileCheckRejects(t *testing.T) {
	feats, instr, total := phaseFixture(40)
	opt := Options{PhaseWindows: 40, PhaseClusters: 14}
	good := buildProfile(t, "k", total, opt, feats, instr)

	mutate := func(f func(*Profile)) Profile {
		p := good
		p.Reps = append([]int(nil), good.Reps...)
		p.Assign = append([]int(nil), good.Assign...)
		f(&p)
		return p
	}
	cases := []struct {
		name string
		p    Profile
		o    Options
		tot  uint64
	}{
		{"stale format", mutate(func(p *Profile) { p.Version = ProfileFormat + 1 }), opt, total},
		{"different total", good, opt, total + 1},
		{"different shape", good, Options{PhaseWindows: 48, PhaseClusters: 14}, total},
		{"reps out of order", mutate(func(p *Profile) { p.Reps[0], p.Reps[1] = p.Reps[1], p.Reps[0] }), opt, total},
		{"assignment out of range", mutate(func(p *Profile) { p.Assign[0] = len(p.Reps) }), opt, total},
		{"truncated arrays", mutate(func(p *Profile) { p.Assign = p.Assign[:1] }), opt, total},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Check(c.tot, c.o); err == nil {
				t.Error("Check accepted a bad profile")
			}
		})
	}
	if err := good.Check(total, opt); err != nil {
		t.Errorf("Check rejects the unmutated profile: %v", err)
	}
}

// scriptedTarget scripts per-window cycle costs so RunPhased's bookkeeping
// can be checked exactly: window w costs cpis[w] cycles per instruction
// when timed. Warm consumes a window without advancing the simulated clock,
// matching the real fast-forward contract.
type scriptedTarget struct {
	cpis   []float64
	clock  float64
	w      int
	warmed uint64
}

func (f *scriptedTarget) Warm(n uint64) { f.warmed += n; f.w++ }

func (f *scriptedTarget) Interval(i int, n uint64) cpu.Result {
	f.clock += f.cpis[f.w] * float64(n)
	f.w++
	return cpu.Result{Cycles: sim.Time(f.clock), Instructions: n}
}

func TestRunPhasedTimesRepresentativesOnly(t *testing.T) {
	feats, instr, total := phaseFixture(12)
	opt := Options{PhaseWindows: 12, PhaseClusters: 4}
	p := buildProfile(t, "k", total, opt, feats, instr)

	ft := &scriptedTarget{}
	for w := 0; w < 12; w++ {
		ft.cpis = append(ft.cpis, 1+0.5*float64(w%3))
	}
	est := RunPhased(ft, total, opt, p, nil)

	if ft.warmed+est.Detailed != total {
		t.Errorf("warmed %d + detailed %d ≠ total %d", ft.warmed, est.Detailed, total)
	}
	if est.Intervals != len(p.Reps) {
		t.Errorf("%d intervals, want one per representative (%d)", est.Intervals, len(p.Reps))
	}
	if !est.Phased {
		t.Error("estimate not marked phased")
	}
	// Scripted CPI is constant within each phase, so the stratified
	// estimate must be exact: every window billed at its phase's CPI.
	var want float64
	for w := 0; w < 12; w++ {
		want += ft.cpis[w] * 5000
	}
	if math.Abs(est.Cycles()-want) > 1e-6 {
		t.Errorf("stratified cycles %.1f, want exact %.1f", est.Cycles(), want)
	}
	if est.CyclesCI() < 0 || math.IsNaN(est.CyclesCI()) {
		t.Errorf("bad CI %v", est.CyclesCI())
	}
}

// TestProfileCheckRejectsUnrunnable: a profile whose shape fields all
// agree with the run but which RunPhased or the phase calibration cannot
// execute must fail Check, so a disk file or a fleet peer serving one
// costs a recompute instead of a panic. Empty feature rows used to pass
// Check and panic phaseCI with index -1.
func TestProfileCheckRejectsUnrunnable(t *testing.T) {
	const total = 10
	opt := Options{PhaseWindows: 2, PhaseClusters: 2}
	row := func() []float64 { return []float64{0.3, 0.2, 0.01, 0.001, 1.5} }
	base := func() Profile {
		return Profile{
			Version: ProfileFormat, Key: "k", Total: total, Windows: 2, Clusters: 2,
			Features: [][]float64{row(), row()},
			Instr:    []uint64{5, 5},
			Assign:   []int{0, 0},
			Reps:     []int{0},
			Weights:  []uint64{10},
		}
	}
	good := base()
	if err := good.Check(total, opt); err != nil {
		t.Fatalf("Check rejects a runnable profile: %v", err)
	}
	RunPhased(&scriptedTarget{cpis: []float64{1, 2}}, total, opt, good, nil)

	cases := []struct {
		name   string
		mutate func(p *Profile)
	}{
		{"empty feature rows", func(p *Profile) { p.Features = [][]float64{{}, {}} }},
		{"short feature row", func(p *Profile) { p.Features[1] = p.Features[1][:cpu.FeatL1MissRate] }},
		{"long feature row", func(p *Profile) { p.Features[0] = append(p.Features[0], 0) }},
		{"NaN feature", func(p *Profile) { p.Features[0][cpu.FeatCPIProxy] = math.NaN() }},
		{"infinite feature", func(p *Profile) { p.Features[1][cpu.FeatL1MissRate] = math.Inf(1) }},
		{"windows do not split the run", func(p *Profile) { p.Instr = []uint64{4, 6} }},
		{"representative outside its cluster", func(p *Profile) {
			p.Reps, p.Assign, p.Weights = []int{0, 1}, []int{1, 0}, []uint64{5, 5}
		}},
		{"weight is not its windows' instructions", func(p *Profile) { p.Weights = []uint64{9} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base()
			c.mutate(&p)
			if err := p.Check(total, opt); err == nil {
				t.Error("Check accepted a profile RunPhased cannot run")
			}
		})
	}
}
