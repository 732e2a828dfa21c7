package tlc

// Phase-aware representative sampling: the root-package glue between the
// clustering machinery (internal/sample, internal/cpu.PhaseProfiler) and
// the run paths. A phased run profiles the timed stream in a cheap
// functional pass (rewinding the generator afterwards, so the measured
// stream is untouched), clusters the windows into program phases, and
// times one weighted representative interval per cluster — several times
// fewer detailed intervals than uniform sampling at the same accuracy.
// Profiles are design-independent and content-addressed, so a
// PhaseProfileStore pays the profiling pass once per benchmark across all
// six designs — and, with the fleet's peer-fill hook, once per fleet.

import (
	"fmt"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/metrics"
	"tlc/internal/sample"
	"tlc/internal/stats"
	"tlc/internal/workload"
)

// phaseProfileKey content-addresses a workload's phase profile. It folds
// exactly what shapes the profiled stream and its clustering — the profile
// format, the system geometry (the shadow caches), the workload spec, the
// warm plan (the stream's position when timing starts; Reseed preserves
// position, so two runs with different warm lengths profile different
// windows), the timed seed and length, the window/cluster shape, and the
// CMP axis — and nothing design-specific, so one profile serves every L2
// design of a benchmark.
func phaseProfileKey(spec workload.Spec, opt Options) string {
	warmSeed, warm := warmPlan(spec, opt)
	k := newKeyHasher()
	k.u64(uint64(sample.ProfileFormat))
	k.system(config.DefaultSystem())
	k.spec(spec)
	k.u64(uint64(warmSeed))
	k.u64(warm)
	k.u64(uint64(opt.Seed))
	k.u64(opt.RunInstructions)
	k.i(opt.PhaseWindows)
	k.i(opt.PhaseClusters)
	k.cmp(opt.cmpConfig())
	return k.sum()
}

// phaseProfileFor resolves the run's phase profile: a cached entry that
// passes sample.Profile.Check (and carries the right key) wins; anything
// else — miss, stale format, foreign shape, corrupt peer fill — falls back
// to compute, whose result is stored for the next run. cached reports
// whether the store supplied the profile; because clustering is
// bit-deterministic in the key, a cached profile selects exactly the
// intervals a recompute would.
func phaseProfileFor(spec workload.Spec, opt Options, sopt sample.Options, compute func(key string) (sample.Profile, error)) (sample.Profile, bool, error) {
	key := phaseProfileKey(spec, opt)
	if opt.PhaseProfiles != nil {
		if prof, ok := opt.PhaseProfiles.Get(key); ok &&
			prof.Key == key && prof.Check(opt.RunInstructions, sopt) == nil {
			return prof, true, nil
		}
	}
	prof, err := compute(key)
	if err != nil {
		return sample.Profile{}, false, err
	}
	if opt.PhaseProfiles != nil {
		opt.PhaseProfiles.Put(key, prof)
	}
	return prof, false, nil
}

// computePhaseProfile runs the profiling pass over a prepared machine's
// streams: save every stream's position, advance each through every
// window in its own shadow hierarchy (a private L1 and an uncontended
// view of the L2), sum the features across cores, rewind. Window weights
// are per-core instruction counts, matching RunPhased's per-core
// accounting. The rewound streams are bit-identical to ones that never
// profiled (the counters they dirtied reset, matching prepare's contract
// that metrics cover only the timed interval).
func computePhaseProfile(key string, r *rig, opt Options) (sample.Profile, error) {
	states := r.streamStates()
	sys := config.DefaultSystem()
	profs := make([]*cpu.PhaseProfiler, len(r.streams))
	for i := range profs {
		profs[i] = cpu.NewPhaseProfiler(sys)
	}
	lens := sample.WindowLengths(opt.RunInstructions, opt.PhaseWindows)
	feats := make([][]float64, len(lens))
	instr := make([]uint64, len(lens))
	for w, n := range lens {
		var f cpu.PhaseFeatures
		for i, s := range r.streams {
			f.Add(profs[i].Window(s, n))
		}
		feats[w] = f.Vector()
		instr[w] = n
	}
	r.setStreamStates(states)
	for _, s := range r.streams {
		s.ResetCounters()
	}
	return sample.BuildProfile(key, opt.RunInstructions, opt.SampleOptions(), feats, instr, opt.Cancel)
}

// registerPhaseMetrics publishes phase-sampling provenance. The counters
// exist only on phase runs — and sample.phase.profile_cached only on runs
// that reused a cached profile — mirroring sim.lanes.restored, so metric
// artifacts diff clean on shared names across modes.
func registerPhaseMetrics(reg *metrics.Registry, prof sample.Profile, cached bool) {
	windows, clusters := uint64(prof.Windows), uint64(len(prof.Reps))
	reg.CounterFunc("sample.phase.windows", func() uint64 { return windows })
	reg.CounterFunc("sample.phase.clusters", func() uint64 { return clusters })
	if cached {
		reg.CounterFunc("sample.phase.profile_cached", func() uint64 { return 1 })
	}
}

// phaseObserver builds the per-interval observer for a phased run: the
// same L2-stat and registry-counter deltas the uniform observer samples,
// but every observation weighted by its cluster's instruction count, so
// the estimates are unbiased even though small phases get the same one
// detailed interval big phases do.
type phaseObserver struct {
	lookup, missRate stats.Weighted
	counters         []stats.Weighted
	names            []string
	// Per-interval calibration covariates, in cluster order: the interval's
	// L2-miss and fetch-mispredict counts plus its instruction length, fed
	// to sample.Estimate.Calibrate after the run.
	spans []phaseSpan
}

type phaseSpan struct {
	cluster    int
	instr      uint64
	cpi        float64
	l2m, mispr float64
}

func newPhaseObserver(reg *metrics.Registry, inst l2.Instrumented, prof sample.Profile) (*phaseObserver, func(sample.Interval)) {
	st := inst.L2Stats()
	names := reg.CounterNames()
	o := &phaseObserver{counters: make([]stats.Weighted, len(names)), names: names}
	misprIdx := -1
	for i, n := range names {
		if n == "cpu.fetch.mispredicts" {
			misprIdx = i
		}
	}
	var prevLookupSum, prevLookupCount, prevMisses uint64
	prevVals := make([]uint64, len(names))
	curVals := make([]uint64, 0, len(names))
	prevVals = reg.AppendCounterValues(prevVals[:0], names)
	return o, func(iv sample.Interval) {
		w := float64(prof.Weights[iv.Index])
		dSum := st.Lookup.Sum() - prevLookupSum
		dCount := st.Lookup.Count() - prevLookupCount
		dMiss := st.Misses.Value() - prevMisses
		prevLookupSum, prevLookupCount, prevMisses = st.Lookup.Sum(), st.Lookup.Count(), st.Misses.Value()
		if dCount > 0 {
			o.lookup.Observe(float64(dSum)/float64(dCount), w)
		}
		o.missRate.Observe(1000*float64(dMiss)/float64(iv.Result.Instructions), w)
		curVals = reg.AppendCounterValues(curVals[:0], names)
		for i, v := range curVals {
			o.counters[i].Observe(1000*float64(v-prevVals[i])/float64(iv.Result.Instructions), w)
		}
		span := phaseSpan{
			cluster: iv.Index,
			instr:   iv.Result.Instructions,
			cpi:     float64(iv.Cycles) / float64(iv.Result.Instructions),
			l2m:     float64(dMiss),
		}
		if misprIdx >= 0 {
			span.mispr = float64(curVals[misprIdx] - prevVals[misprIdx])
		}
		o.spans = append(o.spans, span)
		prevVals, curVals = curVals, prevVals
	}
}

// counterTotal estimates a counter's full-run event count from its
// cluster-weighted per-1K rate (per-1K of total instructions across
// cores); a counter missing from the registry falls back to plain scaling
// of the detailed-window total.
func (o *phaseObserver) counterTotal(name string, total, raw, detailed uint64) uint64 {
	for i, n := range o.names {
		if n == name {
			return uint64(o.counters[i].Mean()*float64(total)/1000 + 0.5)
		}
	}
	return scaleCount(raw, total, detailed)
}

// metricCIs renders the weighted per-counter estimates.
func (o *phaseObserver) metricCIs() []MetricCI {
	mcis := make([]MetricCI, len(o.names))
	for i, n := range o.names {
		mcis[i] = MetricCI{Name: n, MeanPer1K: o.counters[i].Mean(), CI95: o.counters[i].CI95()}
	}
	return mcis
}

// calibratePhase sharpens the phased cycle estimate with the GREG
// estimator (sample.Estimate.Calibrate): measured representative CPIs
// regress on three per-span event rates whose exact full-run totals we
// hold — L2 misses (detailed counter plus warm-path probe counting),
// fetch mispredicts (the workload generator counts them in every delivery
// mode), and the profile's shadow-L1 miss rate (functional, so the
// profiled per-window value IS the run's value). Slope bounds are loose
// physical caps: an L2 miss cannot plausibly cost more than twice the
// DRAM latency, a mispredict more than a few pipeline refills, an L1 miss
// more than a far-bank L2 lookup.
func calibratePhase(est *sample.Estimate, prof sample.Profile, obs *phaseObserver, totL2, totMispr float64) {
	sys := config.DefaultSystem()
	var totL1 float64
	for w, f := range prof.Features {
		totL1 += f[cpu.FeatL1MissRate] * float64(prof.Instr[w])
	}
	cal := sample.Calibration{
		Totals: []float64{totL2, totMispr, totL1},
		Bounds: [][2]float64{
			{0, 2 * float64(sys.MemoryLatency)},
			{0, 3 * float64(sys.PipelineStages)},
			{0, 60},
		},
	}
	for _, s := range obs.spans {
		cal.Obs = append(cal.Obs, sample.SpanObs{
			Cluster: s.cluster,
			CPI:     s.cpi,
			X: []float64{
				s.l2m / float64(s.instr),
				s.mispr / float64(s.instr),
				prof.Features[prof.Reps[s.cluster]][cpu.FeatL1MissRate],
			},
		})
	}
	est.Calibrate(prof, cal)
}

// runPhased runs phase mode: profile (or fetch) the phase
// clustering, time one representative window per cluster on the machine,
// and on one core calibrate the cycle estimate against exact covariate
// totals. RunInstructions counts instructions per core, as in uniform
// sampling.
func runPhased(d Design, spec workload.Spec, opt Options, sopt sample.Options) (SampledResult, error) {
	r, err := prepare(d, spec, opt)
	if err != nil {
		return SampledResult{}, err
	}
	prof, cached, err := phaseProfileFor(spec, opt, sopt, func(key string) (sample.Profile, error) {
		return computePhaseProfile(key, r, opt)
	})
	if err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s phase profiling cancelled: %w", d, spec.Name, err)
	}
	reg := r.inst.Metrics()
	registerPhaseMetrics(reg, prof, cached)
	obs, observe := newPhaseObserver(reg, r.inst, prof)
	// GREG calibration is single-core only: its covariate totals are exact
	// only when the profile's shadow L1 sees what the run's L1 sees, and on
	// N cores coherence invalidations make the run's L1 miss where the
	// per-core shadow hits.
	calibrate := len(r.cores) == 1
	var warmBase uint64
	if calibrate {
		// Count functional L2 misses across the timed region's warm
		// stretches; added to the detailed counter they give the region's
		// exact miss total.
		r.cores[0].SetWarmMissCounting(true)
		warmBase = r.cores[0].WarmL2Misses()
	}
	est := sample.RunPhased(r.m, opt.RunInstructions, sopt, prof, observe)
	if err := r.m.CancelErr(); err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	if calibrate {
		totL2 := float64(reg.CounterValue("l2.misses")) + float64(r.cores[0].WarmL2Misses()-warmBase)
		calibratePhase(&est, prof, obs, totL2, float64(reg.CounterValue("workload.mispredicts")))
	}
	return assemblePhased(d, spec, opt, r.inst, est, obs, uint64(len(r.cores)))
}

// assemblePhased turns a phased estimate into a SampledResult. Registry
// aggregates over the detailed window would over-represent small clusters
// (each gets the same one interval regardless of weight), so the rate
// metrics — misses/1K, mean lookup, the load/store totals — come from the
// observer's cluster-weighted estimates instead; structural counters
// without a per-interval rate reading keep the assemble values.
func assemblePhased(d Design, spec workload.Spec, opt Options, inst l2.Instrumented, est sample.Estimate, obs *phaseObserver, cores uint64) (SampledResult, error) {
	estCycles := est.Cycles()
	totalInstr := opt.RunInstructions * cores
	detailedTotal := est.Detailed * cores
	res := assemble(d, spec.Name, inst.Metrics(), detailedTotal, est.FinalClock)
	res.Instructions = totalInstr
	res.Cycles = uint64(estCycles + 0.5)
	res.MissesPer1K = obs.missRate.Mean()
	if obs.lookup.N() > 0 {
		res.MeanLookup = obs.lookup.Mean()
	}
	res.L2Loads = obs.counterTotal("l2.loads", totalInstr, res.L2Loads, detailedTotal)
	res.L2Stores = obs.counterTotal("l2.stores", totalInstr, res.L2Stores, detailedTotal)
	if estCycles > 0 {
		res.IPC = float64(totalInstr) / estCycles
	}
	attachErrorBound(&res, opt)
	emitMetrics(d, spec.Name, inst, est.FinalClock, opt)
	return SampledResult{
		Result:               res,
		CyclesCI:             est.CyclesCI(),
		MeanLookupCI:         obs.lookup.CI95(),
		MissesPer1KCI:        obs.missRate.CI95(),
		Intervals:            est.Intervals,
		DetailedInstructions: detailedTotal,
		Metrics:              obs.metricCIs(),
	}, nil
}
