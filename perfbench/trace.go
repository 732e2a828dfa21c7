package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tlc"
	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/nuca"
	"tlc/internal/power"
	"tlc/internal/sim"
	"tlc/internal/snapshot"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

// layerTime is the time the decorated layers spent inside one span, with
// the work they did: workload stream calls and instructions delivered, L2
// accesses, and L2 warm installs.
type layerTime struct {
	StreamNS    int64  `json:"stream_ns,omitempty"`
	StreamInstr uint64 `json:"stream_instr,omitempty"`
	AccessNS    int64  `json:"l2_access_ns,omitempty"`
	Accesses    uint64 `json:"l2_accesses,omitempty"`
	WarmNS      int64  `json:"l2_warm_ns,omitempty"`
	WarmBlocks  uint64 `json:"l2_warm_blocks,omitempty"`
}

func (a layerTime) minus(b layerTime) layerTime {
	return layerTime{a.StreamNS - b.StreamNS, a.StreamInstr - b.StreamInstr, a.AccessNS - b.AccessNS,
		a.Accesses - b.Accesses, a.WarmNS - b.WarmNS, a.WarmBlocks - b.WarmBlocks}
}

func (a *layerTime) add(b layerTime) {
	a.StreamNS += b.StreamNS
	a.StreamInstr += b.StreamInstr
	a.AccessNS += b.AccessNS
	a.Accesses += b.Accesses
	a.WarmNS += b.WarmNS
	a.WarmBlocks += b.WarmBlocks
}

// span is one timed interval: a stage of a run or request, its root, or a
// worker's idle wait. Start and End are nanoseconds since the tracer began.
type span struct {
	Name   string    `json:"name"`
	ID     string    `json:"id"`
	Design string    `json:"design,omitempty"`
	Parent int       `json:"parent"` // index into the span list; -1 for a root
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	Layers layerTime `json:"layers"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its index.
func (t *tracer) open(name, id, design string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Design: design, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// close ends span i, recording the layer time spent inside it.
func (t *tracer) close(i int, layers layerTime) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
	t.spans[i].Layers = layers
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// write saves every span with the environment stamp.
func (t *tracer) write(path string, env map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env   map[string]string `json:"env"`
		Spans []span            `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runTrace is the span context of one run or lane group, used by one
// goroutine: stages become child spans of its root, and the decorators of
// its machine feed acc.
type runTrace struct {
	tr     *tracer
	id     string
	design string
	root   int
	acc    *layerTime
}

func (t *tracer) begin(name, id, design string) *runTrace {
	return &runTrace{tr: t, id: id, design: design, root: t.open(name, id, design, -1), acc: &layerTime{}}
}

// stage times fn as a child span of the run's root.
func (r *runTrace) stage(name string, fn func()) {
	before := *r.acc
	i := r.tr.open(name, r.id, r.design, r.root)
	fn()
	r.tr.close(i, r.acc.minus(before))
}

func (r *runTrace) end() { r.tr.close(r.root, *r.acc) }

// tracedL2 times calls into an L2 design. It implements every interface
// the core and the generator probe a cache for — l2.Warmer for the bulk
// warm path, l2.Snapshotter for checkpoints, l2.Instrumented for metrics —
// so the decorated run takes the same fast paths as the bare one.
type tracedL2 struct {
	l2.Instrumented
	snap l2.Snapshotter
	bulk l2.Warmer
	acc  *layerTime
}

func wrapL2(inst l2.Instrumented, acc *layerTime) (*tracedL2, error) {
	snap, ok := inst.(l2.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%T cannot snapshot", inst)
	}
	bulk, ok := inst.(l2.Warmer)
	if !ok {
		return nil, fmt.Errorf("%T has no bulk warm path", inst)
	}
	return &tracedL2{Instrumented: inst, snap: snap, bulk: bulk, acc: acc}, nil
}

func (t *tracedL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	start := time.Now()
	o := t.Instrumented.Access(at, req)
	t.acc.AccessNS += int64(time.Since(start))
	t.acc.Accesses++
	return o
}

func (t *tracedL2) Warm(b mem.Block) {
	start := time.Now()
	t.Instrumented.Warm(b)
	t.acc.WarmNS += int64(time.Since(start))
	t.acc.WarmBlocks++
}

func (t *tracedL2) WarmBulk(blocks []mem.Block) {
	start := time.Now()
	t.bulk.WarmBulk(blocks)
	t.acc.WarmNS += int64(time.Since(start))
	t.acc.WarmBlocks += uint64(len(blocks))
}

func (t *tracedL2) SnapshotState() l2.State        { return t.snap.SnapshotState() }
func (t *tracedL2) RestoreState(st l2.State) error { return t.snap.RestoreState(st) }

// tracedStream times calls into the workload generator. It implements
// cpu.BatchStream and cpu.MemStream, the batched protocols the core and
// the lane warmer probe for.
type tracedStream struct {
	g   *workload.Generator
	acc *layerTime
}

func (t *tracedStream) Next() cpu.Instr {
	start := time.Now()
	in := t.g.Next()
	t.acc.StreamNS += int64(time.Since(start))
	t.acc.StreamInstr++
	return in
}

func (t *tracedStream) NextBatch(buf []cpu.Instr) int {
	start := time.Now()
	n := t.g.NextBatch(buf)
	t.acc.StreamNS += int64(time.Since(start))
	t.acc.StreamInstr += uint64(n)
	return n
}

func (t *tracedStream) NextMems(buf []cpu.MemRef, maxInstr uint64) (int, uint64) {
	start := time.Now()
	n, consumed := t.g.NextMems(buf, maxInstr)
	t.acc.StreamNS += int64(time.Since(start))
	t.acc.StreamInstr += consumed
	return n, consumed
}

// buildDesign constructs a design as the run pipeline does: the design's
// own constructor plus the network-power gauge registered above it.
func buildDesign(d tlc.Design) l2.Instrumented {
	memLat := config.DefaultSystem().MemoryLatency
	switch d {
	case config.SNUCA2:
		s := nuca.NewSNUCA(memLat)
		s.Metrics().Gauge("power.network_w", func(now sim.Time) float64 { return power.MeshDynamicPowerW(s.Mesh(), now) })
		return s
	case config.DNUCA:
		dn := nuca.NewDNUCA(memLat)
		dn.Metrics().Gauge("power.network_w", func(now sim.Time) float64 { return power.MeshDynamicPowerW(dn.Mesh(), now) })
		return dn
	default:
		tc := tlcache.New(d, memLat)
		tc.Metrics().Gauge("power.network_w", func(now sim.Time) float64 { return power.TLCDynamicPowerW(tc, now) })
		return tc
	}
}

// warmPlanOf is the warm stream a point's options ask for: its seed and
// length.
func warmPlanOf(spec workload.Spec, opt tlc.Options) (int64, uint64) {
	seed, n := opt.WarmSeed, opt.WarmInstructions
	if seed == 0 {
		seed = opt.Seed
	}
	if n == 0 {
		n = spec.AutoWarmInstructions()
	}
	return seed, n
}

func ckptKey(d tlc.Design, spec workload.Spec, opt tlc.Options) snapshot.Key {
	seed, n := warmPlanOf(spec, opt)
	return snapshot.Key{Config: d.String(), Bench: spec.Name, Seed: seed, Warm: n}
}

// pipeline is the re-composed single-core figure path: a lane pass per
// benchmark fills a checkpoint store, then each point is built, restored
// and timed — every stage a separate call into the layer that owns it.
type pipeline struct {
	tr    *tracer
	par   int
	store *snapshot.Store
}

// pool runs fn over n items on par workers and records, per worker, the
// time between its last item and the end of the phase as an idle span of
// the benchmark's own pool, so that trace.unaccounted_frac does not count
// it.
func (p *pipeline) pool(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	next := make(chan int)
	last := make([]int64, p.par)
	errs := make([]error, p.par)
	for w := range last {
		last[w] = p.tr.now()
	}
	for w := 0; w < p.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
				last[w] = p.tr.now()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	end := p.tr.now()
	for w := range last {
		p.tr.add(span{Name: "pool.idle", ID: fmt.Sprintf("worker/%d", w), Parent: -1, Start: last[w], End: end})
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lanePhase warms every distinct (design, warm plan) of the points through
// one shared stream per benchmark, as tlc.WarmLanes does, and stores the
// checkpoints.
func (p *pipeline) lanePhase(points []point) error {
	var groups [][]point
	idx := map[string]int{}
	for _, pt := range points {
		i, ok := idx[pt.bench]
		if !ok {
			i = len(groups)
			idx[pt.bench] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], pt)
	}
	return p.pool(len(groups), func(gi int) error {
		return p.laneGroup(groups[gi])
	})
}

func (p *pipeline) laneGroup(pts []point) error {
	spec, ok := workload.SpecByName(pts[0].bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", pts[0].bench)
	}
	seed, warm := warmPlanOf(spec, pts[0].opt)
	rt := p.tr.begin("experiments.lane_group", "lane/"+spec.Name, "")
	defer rt.end()
	var insts []*tracedL2
	var cores []*cpu.Core
	var keys []snapshot.Key
	var gen *workload.Generator
	var err error
	rt.stage("tlc.build", func() {
		for _, pt := range pts {
			var t *tracedL2
			if t, err = wrapL2(buildDesign(pt.design), rt.acc); err != nil {
				return
			}
			insts = append(insts, t)
			cores = append(cores, cpu.New(config.DefaultSystem(), t))
			keys = append(keys, ckptKey(pt.design, spec, pt.opt))
		}
		gen = workload.New(spec, seed)
	})
	if err != nil {
		return err
	}
	rt.stage("tlc.prewarm", func() {
		for _, t := range insts {
			gen.PreWarm(t)
		}
	})
	rt.stage("tlc.lane_warm", func() {
		err = cpu.NewLaneWarmer(cores).Warm(&tracedStream{gen, rt.acc}, warm, nil)
	})
	if err != nil {
		return err
	}
	rt.stage("tlc.ckpt_save", func() {
		gs := gen.State()
		for i, t := range insts {
			p.store.Put(keys[i], snapshot.Checkpoint{Core: cores[i].Snapshot(), L2: t.SnapshotState(), Gen: gs, Lanes: true})
		}
	})
	return nil
}

// runPoint is prepare and RunSpec of the root package, one stage per
// call: build, restore (or pre-warm, warm and save on a miss), timed run,
// and the registry snapshot the result is assembled from.
func (p *pipeline) runPoint(pt point) (outcome, error) {
	spec, ok := workload.SpecByName(pt.bench)
	if !ok {
		return outcome{}, fmt.Errorf("unknown benchmark %q", pt.bench)
	}
	seed, warm := warmPlanOf(spec, pt.opt)
	rt := p.tr.begin("experiments.point", pt.label, pt.design.String())
	defer rt.end()
	var t *tracedL2
	var core *cpu.Core
	var gen *workload.Generator
	var err error
	rt.stage("tlc.build", func() {
		if t, err = wrapL2(buildDesign(pt.design), rt.acc); err != nil {
			return
		}
		gen = workload.New(spec, seed)
		core = cpu.New(config.DefaultSystem(), t)
		core.RegisterMetrics(t.Metrics())
		gen.RegisterMetrics(t.Metrics())
	})
	if err != nil {
		return outcome{}, err
	}
	stream := &tracedStream{gen, rt.acc}
	key := ckptKey(pt.design, spec, pt.opt)
	restored := false
	rt.stage("tlc.ckpt_restore", func() {
		ckp, ok := p.store.Get(key)
		if !ok {
			return
		}
		if err = core.Restore(ckp.Core); err != nil {
			return
		}
		if err = t.RestoreState(ckp.L2); err != nil {
			return
		}
		gen.SetState(ckp.Gen)
		if ckp.Lanes {
			t.Metrics().CounterFunc("sim.lanes.restored", func() uint64 { return 1 })
		}
		restored = true
	})
	if err != nil {
		return outcome{}, err
	}
	if !restored {
		rt.stage("tlc.prewarm", func() { gen.PreWarm(t) })
		rt.stage("tlc.scalar_warm", func() { core.Warm(stream, warm) })
		rt.stage("tlc.ckpt_save", func() {
			p.store.Put(key, snapshot.Checkpoint{Core: core.Snapshot(), L2: t.SnapshotState(), Gen: gen.State()})
		})
	}
	if pt.opt.Seed != seed {
		gen.Reseed(pt.opt.Seed)
	}
	gen.ResetCounters()
	var cr cpu.Result
	rt.stage("tlc.timed", func() { cr = core.Run(stream, pt.opt.RunInstructions) })
	var o outcome
	rt.stage("tlc.assemble", func() {
		o = outcome{Cycles: uint64(cr.Cycles), Metrics: t.Metrics().Snapshot(cr.Cycles)}
	})
	return o, nil
}

// pointsPhase runs every point on the pool.
func (p *pipeline) pointsPhase(points []point) ([]outcome, error) {
	out := make([]outcome, len(points))
	err := p.pool(len(points), func(i int) error {
		o, err := p.runPoint(points[i])
		out[i] = o
		return err
	})
	return out, err
}
