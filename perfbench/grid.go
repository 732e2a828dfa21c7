package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tlc"
	"tlc/internal/experiments"
)

// splitmix is the benchmark's input generator: every workload draws its
// seeds, orders and choices from one splitmix64 stream keyed by --seed, so
// the same seed gives the same inputs on every machine and Go version.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// simSeed draws a simulation seed in [1, 1e6].
func (s *splitmix) simSeed() int64 { return 1 + int64(s.next()%1_000_000) }

// intn draws from [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// distinctSeeds draws n simulation seeds distinct from each other and from
// avoid.
func (s *splitmix) distinctSeeds(n int, avoid int64) []int64 {
	out := make([]int64, 0, n)
	used := map[int64]bool{avoid: true}
	for len(out) < n {
		v := s.simSeed()
		if !used[v] {
			used[v] = true
			out = append(out, v)
		}
	}
	return out
}

// point is one single-core run of a grid: design, benchmark, and the
// options (without checkpoint store or hooks) that identify its result.
type point struct {
	design tlc.Design
	bench  string
	opt    tlc.Options
	label  string
}

func newPoint(d tlc.Design, bench string, opt tlc.Options) point {
	return point{design: d, bench: bench, opt: opt, label: runLabel(d, bench, opt)}
}

// gridColdOptions is grid_cold's input: the default scale with a timed
// seed drawn from the workload seed.
func gridColdOptions(seed int64) tlc.Options {
	rng := splitmix(seed)
	opt := tlc.DefaultOptions()
	opt.Seed = rng.simSeed()
	return opt
}

// gridColdPoints lists the full evaluation grid in RunAll's order.
func gridColdPoints(opt tlc.Options) []point {
	var pts []point
	for _, d := range tlc.Designs() {
		for _, b := range tlc.Benchmarks() {
			pts = append(pts, newPoint(d, b, opt))
		}
	}
	return pts
}

// Suite construction takes about a microsecond, so grid_cold's setup_s
// is the median, over suiteBatches batches, of the mean time of one build in
// a batch of suiteBuilds. Each batch starts right after a collection, so
// every batch allocates into the same heap state.
const (
	suiteBatches = 25
	suiteBuilds  = 1000
)

// newGridSuite builds the figure path's suite exactly as tlcbench does: an
// in-memory checkpoint store sized to the grid, lane warm on. It returns the
// last suite built and the time one build takes.
func newGridSuite(opt tlc.Options, points int) (*experiments.Suite, time.Duration) {
	var s *experiments.Suite
	batches := make([]float64, suiteBatches)
	for i := range batches {
		runtime.GC()
		start := time.Now()
		for j := 0; j < suiteBuilds; j++ {
			o := opt
			o.Checkpoints = tlc.NewCheckpointStore(points, "")
			s = experiments.NewSuite(o)
		}
		batches[i] = float64(time.Since(start)) / suiteBuilds
	}
	return s, time.Duration(median(batches))
}

// gridRun is one RunAll of the full grid with the time each point's
// result became available.
type gridRun struct {
	suite *experiments.Suite
	wall  time.Duration
	// doneMS holds, per point, the milliseconds from the start of RunAll
	// to the point's result.
	doneMS []float64
}

// runGrid runs the figure grid through one suite at the bench's
// parallelism and checks every point's digest.
func runGrid(b *bench, opt tlc.Options) (gridRun, time.Duration, error) {
	pts := gridColdPoints(opt)
	s, setup := newGridSuite(opt, len(pts))
	var mu sync.Mutex
	var done []float64
	var start time.Time
	s.OnRun = func(experiments.RunEvent) {
		mu.Lock()
		done = append(done, float64(time.Since(start))/1e6)
		mu.Unlock()
	}
	start = time.Now()
	runErr := s.RunAll(tlc.Designs(), tlc.Benchmarks(), b.par)
	wall := time.Since(start)
	for _, p := range pts {
		res, err := s.RunErr(p.design, p.bench)
		snap, ok := s.RunMetrics(p.design, p.bench)
		if err == nil && !ok {
			err = fmt.Errorf("no metrics snapshot")
		}
		b.result(p.label, outcome{Cycles: res.Cycles, Metrics: snap}, err)
	}
	if runErr != nil && b.failed == 0 {
		return gridRun{}, 0, runErr
	}
	return gridRun{suite: s, wall: wall, doneMS: done}, setup, nil
}

// runGridCold is one grid_cold unit: build the suite (set-up), then the
// whole grid from a fresh state (timed). A point's latency is the time
// from asking for the grid to that point's result.
func runGridCold(b *bench) (unit, error) {
	g, setup, err := runGrid(b, gridColdOptions(b.seed))
	if err != nil {
		return unit{}, err
	}
	return unit{setup: setup, wall: g.wall, latMS: g.doneMS}, nil
}

// crossCheckGridCold re-runs one grid point, chosen by the seed, through
// the scalar path — plain tlc.Run with no checkpoint store — and compares
// it with the lane-warmed grid's digest.
func crossCheckGridCold(b *bench) error {
	opt := gridColdOptions(b.seed)
	pts := gridColdPoints(opt)
	rng := splitmix(b.seed ^ 0x5eed)
	p := pts[rng.intn(len(pts))]
	return crossCheckLocal(b, p.design, p.bench, p.opt, p.label)
}

// crossCheckLocal runs a configuration in-process with no checkpoint or
// profile store and compares it with the digest the workload produced for
// the same label.
func crossCheckLocal(b *bench, d tlc.Design, bench string, opt tlc.Options, label string) error {
	want, ok := b.check.seen[label]
	if !ok {
		return fmt.Errorf("cross-check: %s was never run", label)
	}
	got, err := localOutcome(d, bench, opt)
	b.attempted++
	if err != nil {
		b.failed++
		b.check.fail("local %s: %v", label, err)
		return nil
	}
	if dg := digest(got); dg != want {
		b.failed++
		b.check.fail("local %s: digest %s, workload produced %s", label, dg, want)
	}
	return nil
}

// localOutcome runs one configuration in-process with no checkpoint or
// profile store, the reference every served and restored result must
// match.
func localOutcome(d tlc.Design, bench string, opt tlc.Options) (outcome, error) {
	var snap tlc.MetricsSnapshot
	opt.OnMetrics = func(ev tlc.MetricsEvent) { snap = ev.Snapshot }
	if opt.PhaseWindows > 0 {
		sr, err := tlc.RunSampled(d, bench, opt)
		if err != nil {
			return outcome{}, err
		}
		return outcome{Cycles: sr.Cycles, Metrics: snap, CyclesCI: sr.CyclesCI,
			MeanLookupCI: sr.MeanLookupCI, MissesPer1KCI: sr.MissesPer1KCI}, nil
	}
	res, err := tlc.Run(d, bench, opt)
	if err != nil {
		return outcome{}, err
	}
	return outcome{Cycles: res.Cycles, Metrics: snap}, nil
}

// sweepDesigns are seed_sweep's designs, one per L2 implementation: the
// static mesh (nuca SNUCA), the migrating mesh (nuca DNUCA) and the
// transmission-line cache (tlcache).
var sweepDesigns = []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}

// sweepSeeds is how many timed seeds each seed_sweep unit measures per
// grid point: three make a unit about as long as grid_cold's.
const sweepSeeds = 3

// seedSweepPlan is seed_sweep's input: one warm seed and sweepSeeds timed
// seeds drawn from the workload seed. It returns the warm grid (one point
// per design and benchmark under the warm seed) and the timed points.
func seedSweepPlan(seed int64) (warm []point, timed []point) {
	rng := splitmix(seed)
	rng.next() // keep seed_sweep's draws apart from grid_cold's
	warmSeed := rng.simSeed()
	seeds := rng.distinctSeeds(sweepSeeds, warmSeed)
	for _, d := range sweepDesigns {
		for _, bn := range tlc.Benchmarks() {
			o := tlc.DefaultOptions()
			o.Seed, o.WarmSeed = warmSeed, warmSeed
			warm = append(warm, newPoint(d, bn, o))
		}
	}
	for _, s := range seeds {
		for _, d := range sweepDesigns {
			for _, bn := range tlc.Benchmarks() {
				o := tlc.DefaultOptions()
				o.Seed, o.WarmSeed = s, warmSeed
				timed = append(timed, newPoint(d, bn, o))
			}
		}
	}
	return warm, timed
}

// fillStore is seed_sweep's set-up: the figure path's lane pass fills a
// fresh checkpoint store with every point's warm state.
func fillStore(warm []point, par int) (*tlc.CheckpointStore, *experiments.Suite) {
	store := tlc.NewCheckpointStore(len(warm), "")
	gp := make([]experiments.GridPoint, len(warm))
	for i, p := range warm {
		o := p.opt
		o.Checkpoints = store
		gp[i] = experiments.GridPoint{Design: p.design, Bench: p.bench, Opt: o}
	}
	s := experiments.NewSuite(gp[0].Opt)
	s.WarmGrid(gp, par)
	return store, s
}

// runSeedSweep is one seed_sweep unit: fill a fresh store (set-up), then
// every timed point as a standalone tlc.Run restoring from it, par at a
// time (timed).
func runSeedSweep(b *bench) (unit, error) {
	u, _, err := seedSweepUnit(b)
	return u, err
}

// seedSweepUnit is runSeedSweep also returning the set-up suite's
// counters.
func seedSweepUnit(b *bench) (unit, experiments.Metrics, error) {
	warm, timed := seedSweepPlan(b.seed)
	start := time.Now()
	store, suite := fillStore(warm, b.par)
	u := unit{setup: time.Since(start)}

	type done struct {
		out outcome
		ms  float64
		err error
	}
	results := make([]done, len(timed))
	start = time.Now()
	parallel(len(timed), b.par, func(i int) {
		p := timed[i]
		o := p.opt
		o.Checkpoints = store
		var snap tlc.MetricsSnapshot
		o.OnMetrics = func(ev tlc.MetricsEvent) { snap = ev.Snapshot }
		t := time.Now()
		res, err := tlc.Run(p.design, p.bench, o)
		results[i] = done{outcome{Cycles: res.Cycles, Metrics: snap}, float64(time.Since(t)) / 1e6, err}
	})
	u.wall = time.Since(start)
	for i, r := range results {
		b.result(timed[i].label, r.out, r.err)
		u.latMS = append(u.latMS, r.ms)
	}
	return u, suite.Metrics(), nil
}

// crossCheckSeedSweep re-runs one timed point, chosen by the seed, through
// the scalar path with no store.
func crossCheckSeedSweep(b *bench) error {
	_, timed := seedSweepPlan(b.seed)
	rng := splitmix(b.seed ^ 0x5eed)
	p := timed[rng.intn(len(timed))]
	return crossCheckLocal(b, p.design, p.bench, p.opt, p.label)
}

// parallel calls fn(i) for i in [0, n) on par workers, in index order of
// pick-up, and returns when all are done.
func parallel(n, par int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
