package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"tlc"
	"tlc/internal/experiments"
	"tlc/internal/snapshot"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Metrics a workload does not exercise read 0 and are named, with the
// reason, in the run's notes.
var perLayer = []metricDef{
	{"tlc.build_ms", "ms"}, {"tlc.prewarm_ms", "ms"}, {"tlc.lane_warm_ms", "ms"}, {"tlc.ckpt_save_ms", "ms"},
	{"tlc.ckpt_restore_ms", "ms"}, {"tlc.timed_ms", "ms"}, {"tlc.assemble_ms", "ms"}, {"tlc.setup_share", "ratio"},
	{"workload.stream_ms", "ms"}, {"workload.ns_per_instr", "ns"},
	{"cpu.self_ms", "ms"}, {"cpu.ns_per_instr", "ns"},
	{"l2.access_ms", "ms"}, {"l2.accesses", "count"}, {"l2.snuca.ns_per_access", "ns"}, {"l2.dnuca.ns_per_access", "ns"},
	{"l2.tlc.ns_per_access", "ns"}, {"l2.warm_blocks", "count"}, {"l2.warm_ns_per_block", "ns"},
	{"snapshot.hits", "count"}, {"snapshot.misses", "count"},
	{"experiments.sim_wall_ms", "ms"}, {"experiments.lane_wall_ms", "ms"}, {"experiments.parallel_overlap", "ratio"},
	{"experiments.lanes_warmed", "count"}, {"experiments.scalar_points", "count"},
	{"sample.phase_p50_ms", "ms"}, {"sample.profile_hits", "count"}, {"sample.profile_misses", "count"},
	{"machine.cmp_p50_ms", "ms"},
	{"server.full_p50_ms", "ms"}, {"server.cached_p50_ms", "ms"}, {"server.handler_ms", "ms"}, {"server.overhead_ms", "ms"},
	{"server.client_ms", "ms"}, {"server.cache_hit_ratio", "ratio"}, {"server.executed", "count"},
	{"server.coalesced", "count"}, {"server.rejected", "count"},
	{"go.alloc_bytes_per_result", "B"}, {"go.gc_cpu_fraction", "ratio"}, {"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"}, {"trace.unaccounted_frac", "ratio"},
}

// layerReport collects one traced run's per-layer metrics and notes.
type layerReport struct {
	m     map[string]float64
	set   map[string]bool
	notes []string
}

func newLayerReport() *layerReport {
	return &layerReport{m: map[string]float64{}, set: map[string]bool{}}
}

func (r *layerReport) put(name string, v float64) {
	r.m[name] = v
	r.set[name] = true
}

func (r *layerReport) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish fills the metrics the workload does not exercise with 0 and names
// them, grouped by layer prefix, with why.
func (r *layerReport) finish(workload string, why map[string]string) (map[string]float64, []string) {
	absent := map[string][]string{}
	for _, pl := range perLayer {
		if !r.set[pl.name] {
			r.m[pl.name] = 0
			layer, _, _ := strings.Cut(pl.name, ".")
			absent[layer] = append(absent[layer], pl.name)
		}
	}
	layers := make([]string, 0, len(absent))
	for l := range absent {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		reason := why[l]
		if reason == "" {
			reason = "not exercised by " + workload
		}
		r.note("absent (reported as 0): %s — %s", strings.Join(absent[l], ", "), reason)
	}
	return r.m, r.notes
}

// pipelineMetrics reduces the re-composed pipeline's spans to the tlc,
// workload, cpu and l2 metrics. A layer's self time is its span minus the
// part the decorated layers inside it cover.
func pipelineMetrics(r *layerReport, spans []span) {
	stage := map[string]int64{}
	var all, timed layerTime
	var timedNS int64
	type acc struct{ ns, n uint64 }
	perImpl := map[string]*acc{"snuca": {}, "dnuca": {}, "tlc": {}}
	for _, s := range spans {
		name, ok := strings.CutPrefix(s.Name, "tlc.")
		if !ok {
			continue
		}
		stage[name] += s.dur()
		all.add(s.Layers)
		if name == "timed" {
			timedNS += s.dur()
			timed.add(s.Layers)
		}
		if s.Layers.Accesses > 0 {
			a := perImpl[implOf(s.Design)]
			a.ns += uint64(s.Layers.AccessNS)
			a.n += s.Layers.Accesses
		}
	}
	var total, setup int64
	for name, ns := range stage {
		total += ns
		if name != "timed" && name != "assemble" {
			setup += ns
		}
	}
	for _, name := range []string{"build", "prewarm", "lane_warm", "ckpt_save", "ckpt_restore", "timed", "assemble"} {
		r.put("tlc."+name+"_ms", ms(stage[name]))
	}
	if ns := stage["scalar_warm"]; ns > 0 {
		r.note("tlc.scalar_warm: %.1f ms of warm-up ran scalar (a checkpoint missed); counted in tlc.setup_share", ms(ns))
	}
	r.put("tlc.setup_share", ratio(float64(setup), float64(total)))
	r.put("workload.stream_ms", ms(all.StreamNS))
	r.put("workload.ns_per_instr", ratio(float64(all.StreamNS), float64(all.StreamInstr)))
	cpuSelf := timedNS - timed.StreamNS - timed.AccessNS - timed.WarmNS
	r.put("cpu.self_ms", ms(cpuSelf))
	r.put("cpu.ns_per_instr", ratio(float64(cpuSelf), float64(timed.StreamInstr)))
	r.put("l2.access_ms", ms(all.AccessNS))
	r.put("l2.accesses", float64(all.Accesses))
	for impl, a := range perImpl {
		if a.n > 0 {
			r.put("l2."+impl+".ns_per_access", float64(a.ns)/float64(a.n))
		}
	}
	r.put("l2.warm_blocks", float64(all.WarmBlocks))
	r.put("l2.warm_ns_per_block", ratio(float64(all.WarmNS), float64(all.WarmBlocks)))
}

// implOf names the L2 implementation behind a design.
func implOf(design string) string {
	switch design {
	case tlc.DesignSNUCA2.String():
		return "snuca"
	case tlc.DesignDNUCA.String():
		return "dnuca"
	}
	return "tlc"
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goProbe measures the Go runtime over one untraced unit: bytes allocated,
// the GC's share of CPU, and the peak of live heap objects (sampled every
// 10 ms by a goroutine that stop ends and waits for).
type goProbe struct {
	samples []metrics.Sample
	stop    chan struct{}
	done    chan struct{}
	peak    uint64
}

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mHeap     = "/memory/classes/heap/objects:bytes"
)

func startGoProbe() *goProbe {
	g := &goProbe{stop: make(chan struct{}), done: make(chan struct{})}
	g.samples = []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(g.samples)
	go func() {
		defer close(g.done)
		heap := []metrics.Sample{{Name: mHeap}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			g.peak = max(g.peak, heap[0].Value.Uint64())
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and reports the go.* metrics per result.
func (g *goProbe) finish(r *layerReport, results int) {
	close(g.stop)
	<-g.done
	end := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(end)
	allocs := end[0].Value.Uint64() - g.samples[0].Value.Uint64()
	gc := end[1].Value.Float64() - g.samples[1].Value.Float64()
	cpu := end[2].Value.Float64() - g.samples[2].Value.Float64()
	r.put("go.alloc_bytes_per_result", ratio(float64(allocs), float64(results)))
	r.put("go.gc_cpu_fraction", ratio(gc, cpu))
	r.put("go.heap_peak_mb", float64(g.peak)/(1<<20))
}

// traceWall compares the traced and untraced runs of the same work:
// overhead is the traced run's extra host time, and unaccounted the share
// of the traced workers' time (wall × workers) that neither a stage nor an
// idle wait covers.
func traceWall(r *layerReport, untraced, traced time.Duration, covered int64, workers int) {
	r.put("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	r.put("trace.unaccounted_frac", 1-float64(covered)/(float64(traced)*float64(workers)))
}

// coveredNS sums the stage spans and the workers' idle waits: what the
// stages' times account for of the traced run.
func coveredNS(spans []span) int64 {
	var ns int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "tlc.") || s.Name == "pool.idle" {
			ns += s.dur()
		}
	}
	return ns
}

func (b *bench) writeSpans(tr *tracer) {
	path := filepath.Join(b.outDir, "trace", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := tr.write(path, b.env); err != nil {
		fmt.Printf("# writing spans: %v\n", err)
		return
	}
	fmt.Printf("# spans written to %s\n", path)
}

// runTracedPipeline runs the re-composed pipeline over warm and timed
// points, checks every timed point's digest, and reports the pipeline's
// per-layer metrics. It returns the lane phase's and the points phase's
// host times.
func runTracedPipeline(b *bench, r *layerReport, tr *tracer, warm, timed []point) (time.Duration, time.Duration, error) {
	p := &pipeline{tr: tr, par: b.par, store: snapshot.NewStore(len(warm), "")}
	start := time.Now()
	if err := p.lanePhase(warm); err != nil {
		return 0, 0, err
	}
	lane := time.Since(start)
	start = time.Now()
	outs, err := p.pointsPhase(timed)
	points := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	for i, o := range outs {
		b.result(timed[i].label, o, nil)
	}
	spans := tr.spans
	pipelineMetrics(r, spans)
	st := p.store.Stats()
	r.put("snapshot.hits", float64(st.Hits))
	r.put("snapshot.misses", float64(st.Misses))
	return lane, points, nil
}

// suiteMetrics reports the experiments layer's own counters.
func suiteMetrics(r *layerReport, m experiments.Metrics, elapsed time.Duration) {
	r.put("experiments.sim_wall_ms", float64(m.SimWall)/1e6)
	r.put("experiments.lane_wall_ms", float64(m.LaneWall)/1e6)
	r.put("experiments.parallel_overlap", ratio(float64(m.SimWall+m.LaneWall), float64(elapsed)))
	r.put("experiments.lanes_warmed", float64(m.LanesWarmed))
	r.put("experiments.scalar_points", float64(m.LaneScalarPoints))
}

var notServed = "the served path runs inside tlcd; measured on served_mix"

// tracedGridCold runs one untraced grid through the suite (the reference:
// its host time, digests, experiments counters and Go runtime figures),
// then the re-composed, decorated pipeline over the same grid, whose
// digests must equal the reference's.
func tracedGridCold(b *bench) (map[string]float64, []string, error) {
	r := newLayerReport()
	opt := gridColdOptions(b.seed)
	debug.FreeOSMemory()
	gp := startGoProbe()
	g, _, err := runGrid(b, opt)
	if err != nil {
		return nil, nil, err
	}
	gp.finish(r, len(g.doneMS))
	suiteMetrics(r, g.suite.Metrics(), g.wall)
	debug.FreeOSMemory()
	tr := newTracer()
	pts := gridColdPoints(opt)
	lane, points, err := runTracedPipeline(b, r, tr, pts, pts)
	if err != nil {
		return nil, nil, err
	}
	traceWall(r, g.wall, lane+points, coveredNS(tr.spans), b.par)
	b.writeSpans(tr)
	m, notes := r.finish(b.workload, map[string]string{
		"sample": notServed, "machine": notServed, "server": notServed,
	})
	return m, notes, nil
}

// tracedSeedSweep runs one untraced seed_sweep unit (the reference), then
// the re-composed pipeline: its lane phase is the set-up, its points phase
// the sweep.
func tracedSeedSweep(b *bench) (map[string]float64, []string, error) {
	r := newLayerReport()
	debug.FreeOSMemory()
	gp := startGoProbe()
	u, sm, err := seedSweepUnit(b)
	if err != nil {
		return nil, nil, err
	}
	gp.finish(r, len(u.latMS))
	suiteMetrics(r, sm, u.setup)
	r.note("experiments: the set-up's lane pass runs through Suite.WarmGrid; the sweep's points are plain tlc.Run calls, so sim_wall_ms is 0 here")
	debug.FreeOSMemory()
	tr := newTracer()
	warm, timed := seedSweepPlan(b.seed)
	lane, points, err := runTracedPipeline(b, r, tr, warm, timed)
	if err != nil {
		return nil, nil, err
	}
	traceWall(r, u.setup+u.wall, lane+points, coveredNS(tr.spans), b.par)
	b.writeSpans(tr)
	m, notes := r.finish(b.workload, map[string]string{
		"sample": notServed, "machine": notServed, "server": notServed,
	})
	return m, notes, nil
}

// tracedServedMix runs one untraced served_mix unit (the reference), then a
// second on a fresh server whose handler is wrapped in a timing layer, with
// the client side timed too. The served records of both must match.
func tracedServedMix(b *bench) (map[string]float64, []string, error) {
	r := newLayerReport()
	debug.FreeOSMemory()
	gp := startGoProbe()
	ref, err := runServed(b, nil, "")
	if err != nil {
		return nil, nil, err
	}
	gp.finish(r, len(ref.timed))

	debug.FreeOSMemory()
	tr := newTracer()
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			i := tr.open("server.handler", req.Header.Get(requestHeader), "", -1)
			h.ServeHTTP(w, req)
			tr.close(i, layerTime{})
		})
	}
	got, err := runServed(b, wrap, "t/")
	if err != nil {
		return nil, nil, err
	}
	// The client spans are recorded after the run; each handler span then
	// becomes the child of its request's client span.
	_, timed := servedPlan(b.seed)
	clientSpan := map[string]int{}
	for i, res := range got.timed {
		id := fmt.Sprintf("t/timed/%d", i)
		start := int64(res.start.Sub(tr.t0))
		tr.add(span{Name: "client.request", ID: id, Parent: -1, Start: start, End: start + int64(res.lat)})
		clientSpan[id] = len(tr.spans) - 1
	}
	handlerNS := map[string]int64{}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "server.handler" {
			handlerNS[s.ID] += s.dur()
			if c, ok := clientSpan[s.ID]; ok {
				s.Parent = c
			}
		}
	}
	var full, cached, phase, cmp, overhead, client []float64
	var handlerTotal, covered int64
	for i, res := range got.timed {
		id := fmt.Sprintf("t/timed/%d", i)
		latMS := float64(res.lat) / 1e6
		h := handlerNS[id]
		handlerTotal += h
		covered += int64(res.lat)
		client = append(client, latMS-ms(h))
		switch {
		case res.rec.Cached:
			cached = append(cached, latMS)
		case !res.rec.Coalesced:
			full = append(full, latMS)
			overhead = append(overhead, ms(h)-res.rec.WallMS)
		}
		switch timed[i].kind {
		case "phase":
			phase = append(phase, latMS)
		case "cmp":
			cmp = append(cmp, latMS)
		}
	}
	m := got.metric
	r.put("server.full_p50_ms", median(full))
	r.put("server.cached_p50_ms", median(cached))
	r.put("server.handler_ms", ms(handlerTotal))
	r.put("server.overhead_ms", median(overhead))
	r.put("server.client_ms", median(client))
	r.put("server.cache_hit_ratio", ratio(m["server.runs.cache_hits"], m["server.runs.requested"]))
	r.put("server.executed", m["server.runs.executed"])
	r.put("server.coalesced", m["server.runs.coalesced"])
	r.put("server.rejected", m["server.runs.rejected"])
	r.put("sample.phase_p50_ms", median(phase))
	r.put("sample.profile_hits", m["server.profiles.hits"])
	r.put("sample.profile_misses", m["server.profiles.misses"])
	r.put("machine.cmp_p50_ms", median(cmp))
	r.put("snapshot.hits", m["server.checkpoints.hits"])
	r.put("snapshot.misses", m["server.checkpoints.misses"])
	r.put("trace.overhead_frac", (got.setup+got.wall).Seconds()/(ref.setup+ref.wall).Seconds()-1)
	r.put("trace.unaccounted_frac", 1-float64(covered)/(float64(got.wall)*float64(b.par)))
	r.note("server: counters from /metricz cover set-up and timed requests; latencies cover the %d timed requests", len(got.timed))
	b.writeSpans(tr)
	out, notes := r.finish(b.workload, map[string]string{
		"tlc":         "the run pipeline executes inside tlcd, where the benchmark cannot call its stages; measured on grid_cold and seed_sweep",
		"workload":    "inside tlcd; measured on grid_cold and seed_sweep",
		"cpu":         "inside tlcd; measured on grid_cold and seed_sweep",
		"l2":          "inside tlcd; measured on grid_cold and seed_sweep",
		"experiments": "tlcd runs single requests through per-options suites without a grid; measured on grid_cold",
	})
	return out, notes, nil
}
