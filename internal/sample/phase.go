package sample

// Phase-aware representative sampling: instead of N uniform detailed
// intervals, a cheap profiling pass slices the timed region into fixed
// instruction windows, extracts one feature vector per window
// (cpu.PhaseProfiler), k-means clusters the windows into program phases,
// and the runner times one representative interval per cluster — scaling
// each cluster's contribution by its instruction weight, in the spirit of
// SimPoint-style interval selection (PAPERS.md: "Improving the
// Representativeness of Simulation Intervals for the Cache Memory
// System"). Everything here is bit-deterministic for a fixed profile key:
// the k-means seeding derives from the key via splitmix64, iteration
// bounds are fixed, and every tie breaks toward the lowest index — so a
// profile recomputed anywhere in a fleet selects the same intervals as one
// fetched from a peer.

import (
	"fmt"
	"hash/fnv"
	"math"

	"tlc/internal/cpu"
	"tlc/internal/sim"
	"tlc/internal/stats"
)

// ProfileFormat versions the phase-profile layout. Bump it whenever the
// feature vector, clustering, or selection semantics change, so stale
// cached profiles miss instead of selecting wrong intervals.
const ProfileFormat = 1

// Profile is a workload's clustered phase profile: per-window feature
// vectors, their cluster assignment, and the selected representative
// window per cluster. It is design-independent (features come from shadow
// caches of the fixed system geometry), so one profile serves every design
// of a benchmark — and, cached by content key, the whole fleet. All fields
// are exported for gob/JSON round-tripping; interval selection rides only
// on the integer fields, so a profile survives any wire encoding intact.
type Profile struct {
	// Version is ProfileFormat at build time.
	Version int
	// Key is the content key the profile was built for (it also seeded the
	// clustering).
	Key string
	// Total is the timed instruction count profiled (per core for CMP).
	Total uint64
	// Windows and Clusters echo the Options the profile was built with.
	Windows  int
	Clusters int
	// Features holds one row per window; the last column is the CPI proxy
	// (cpu.PhaseFeatures.Vector).
	Features [][]float64
	// Instr is the instructions consumed by each window (the window-length
	// split of Total).
	Instr []uint64
	// Assign maps each window to its cluster (post-compaction ids).
	Assign []int
	// Reps[k] is cluster k's representative window, strictly ascending —
	// clusters are relabeled by representative position, so executing
	// Reps in order is executing clusters in order.
	Reps []int
	// Weights[k] is cluster k's total instruction count; the weights sum
	// to Total.
	Weights []uint64
}

// Check validates a (possibly fetched) profile against the run it is about
// to steer. A mismatch means the profile came from a different
// configuration or format era, or was corrupted on disk or on the wire,
// and must be recomputed. A profile that passes is safe to execute: every
// row has cpu.FeatCols finite features, the windows split total exactly as
// WindowLengths does, each representative belongs to its own cluster, and
// each cluster's weight is the instruction count of its windows.
func (p Profile) Check(total uint64, opt Options) error {
	if p.Version != ProfileFormat {
		return fmt.Errorf("sample: profile version %d, want %d", p.Version, ProfileFormat)
	}
	if p.Total != total {
		return fmt.Errorf("sample: profile covers %d instructions, run has %d", p.Total, total)
	}
	if p.Windows != opt.PhaseWindows || p.Clusters != opt.PhaseClusters {
		return fmt.Errorf("sample: profile shape %d windows/%d clusters, options want %d/%d",
			p.Windows, p.Clusters, opt.PhaseWindows, opt.PhaseClusters)
	}
	if p.Windows <= 0 || len(p.Features) != p.Windows || len(p.Instr) != p.Windows || len(p.Assign) != p.Windows {
		return fmt.Errorf("sample: profile arrays sized %d/%d/%d, want %d windows",
			len(p.Features), len(p.Instr), len(p.Assign), p.Windows)
	}
	if len(p.Reps) == 0 || len(p.Reps) > p.Clusters || len(p.Weights) != len(p.Reps) {
		return fmt.Errorf("sample: profile has %d representatives/%d weights for %d clusters",
			len(p.Reps), len(p.Weights), p.Clusters)
	}
	prev := -1
	for k, w := range p.Reps {
		if w <= prev || w >= p.Windows {
			return fmt.Errorf("sample: representative %d of cluster %d out of order or range", w, k)
		}
		prev = w
	}
	for w, k := range p.Assign {
		if k < 0 || k >= len(p.Reps) {
			return fmt.Errorf("sample: window %d assigned to cluster %d of %d", w, k, len(p.Reps))
		}
	}
	for k, w := range p.Reps {
		if p.Assign[w] != k {
			return fmt.Errorf("sample: representative %d of cluster %d is assigned to cluster %d", w, k, p.Assign[w])
		}
	}
	weights := make([]uint64, len(p.Reps))
	for w, n := range WindowLengths(total, p.Windows) {
		if p.Instr[w] != n {
			return fmt.Errorf("sample: window %d holds %d instructions, want %d", w, p.Instr[w], n)
		}
		weights[p.Assign[w]] += n
	}
	for k, wt := range weights {
		if p.Weights[k] != wt {
			return fmt.Errorf("sample: cluster %d weighs %d instructions, its windows hold %d", k, p.Weights[k], wt)
		}
	}
	for w, row := range p.Features {
		if len(row) != cpu.FeatCols {
			return fmt.Errorf("sample: window %d has %d feature columns, want %d", w, len(row), cpu.FeatCols)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sample: window %d has a non-finite feature %v", w, v)
			}
		}
	}
	return nil
}

// WindowLengths splits total instructions into n windows: total/n each,
// with the remainder spread one instruction at a time over the first
// total%n windows. Profiling and phased execution both use this split, so
// window boundaries always agree.
func WindowLengths(total uint64, n int) []uint64 {
	base, extra := total/uint64(n), total%uint64(n)
	lens := make([]uint64, n)
	for i := range lens {
		lens[i] = base
		if uint64(i) < extra {
			lens[i]++
		}
	}
	return lens
}

// phaseRNG is a splitmix64 stream: tiny, seedable, and deterministic —
// the clustering's only randomness source, seeded from the profile key so
// equal keys cluster identically everywhere.
type phaseRNG uint64

func newPhaseRNG(key string) *phaseRNG {
	h := fnv.New64a()
	h.Write([]byte(key))
	r := phaseRNG(h.Sum64())
	return &r
}

func (r *phaseRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 draws uniformly from [0,1) with 53 bits of precision.
func (r *phaseRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn draws uniformly from [0,n).
func (r *phaseRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// kmeansIters bounds the Lloyd iterations; assignments converge long
// before this on the window counts phase mode uses, and the fixed bound
// keeps worst-case clustering cost deterministic.
const kmeansIters = 64

// BuildProfile clusters per-window feature rows into a phase profile.
// feats holds one row per window (equal lengths, CPI proxy last); instr
// the per-window instruction counts (summing to total). opt must have
// passed Validate. The result is bit-deterministic in (key, inputs).
// cancel, when non-nil, is polled once per k-means seeding step and once
// per Lloyd iteration; its first error aborts clustering and is returned.
func BuildProfile(key string, total uint64, opt Options, feats [][]float64, instr []uint64, cancel func() error) (Profile, error) {
	w := opt.PhaseWindows
	k := opt.PhaseClusters
	norm := normalize(feats)
	assign, err := kmeans(norm, k, newPhaseRNG(key), cancel)
	if err != nil {
		return Profile{}, err
	}

	// Compact away empty clusters and pick each survivor's representative:
	// the member window closest to the cluster's feature mean (lowest
	// index on ties).
	type clusterInfo struct {
		rep    int
		weight uint64
		old    int
	}
	var clusters []clusterInfo
	for c := 0; c < k; c++ {
		var members []int
		for wi, a := range assign {
			if a == c {
				members = append(members, wi)
			}
		}
		if len(members) == 0 {
			continue
		}
		centroid := meanOf(norm, members)
		rep, best := members[0], math.Inf(1)
		var weight uint64
		for _, wi := range members {
			weight += instr[wi]
			if d := sqDist(norm[wi], centroid); d < best {
				best, rep = d, wi
			}
		}
		clusters = append(clusters, clusterInfo{rep: rep, weight: weight, old: c})
	}
	// Relabel clusters by representative position: Reps comes out strictly
	// ascending, so phased execution visits clusters in window order and
	// interval index k is cluster k.
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && clusters[j].rep < clusters[j-1].rep; j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}
	remap := make(map[int]int, len(clusters))
	reps := make([]int, len(clusters))
	weights := make([]uint64, len(clusters))
	for i, c := range clusters {
		remap[c.old] = i
		reps[i] = c.rep
		weights[i] = c.weight
	}
	for wi := range assign {
		assign[wi] = remap[assign[wi]]
	}
	return Profile{
		Version:  ProfileFormat,
		Key:      key,
		Total:    total,
		Windows:  w,
		Clusters: k,
		Features: feats,
		Instr:    instr,
		Assign:   assign,
		Reps:     reps,
		Weights:  weights,
	}, nil
}

// normalize z-scores each feature column (population moments); a constant
// column normalizes to zero so it cannot dominate distances.
func normalize(feats [][]float64) [][]float64 {
	n := len(feats)
	cols := len(feats[0])
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	for c := 0; c < cols; c++ {
		var mean float64
		for _, row := range feats {
			mean += row[c]
		}
		mean /= float64(n)
		var varsum float64
		for _, row := range feats {
			d := row[c] - mean
			varsum += d * d
		}
		std := math.Sqrt(varsum / float64(n))
		if std == 0 {
			continue
		}
		for i, row := range feats {
			out[i][c] = (row[c] - mean) / std
		}
	}
	return out
}

// kmeans runs k-means++ seeding plus bounded Lloyd iterations. Every
// data-dependent choice is deterministic: the rng is the caller's seeded
// stream and ties break toward the lowest index. cancel (may be nil) is
// polled before every seeding step and every Lloyd iteration, so a large
// k·n stops within one O(n) step or one O(k·n) iteration of being asked.
func kmeans(points [][]float64, k int, rng *phaseRNG, cancel func() error) ([]int, error) {
	n := len(points)
	cols := len(points[0])
	centroids := make([][]float64, 0, k)
	cancelled := func() error {
		if cancel == nil {
			return nil
		}
		return cancel()
	}

	// k-means++ seeding: first centroid uniform, later ones with
	// probability proportional to squared distance from the nearest
	// chosen centroid. d2 holds each point's nearest-centroid distance and
	// folds in only the newest centroid per step: a running minimum is
	// exact, so this equals the full rescan over all centroids.
	first := rng.intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centroids) < k {
		if err := cancelled(); err != nil {
			return nil, err
		}
		newest := centroids[len(centroids)-1]
		var totalD float64
		for i, p := range points {
			if d := sqDist(p, newest); d < d2[i] {
				d2[i] = d
			}
			totalD += d2[i]
		}
		pick := -1
		if totalD > 0 {
			draw := rng.float64() * totalD
			var cum float64
			for i, d := range d2 {
				cum += d
				if cum > draw && d > 0 {
					pick = i
					break
				}
			}
			if pick == -1 { // rounding left the draw past the last mass
				for i := n - 1; i >= 0; i-- {
					if d2[i] > 0 {
						pick = i
						break
					}
				}
			}
		}
		if pick == -1 {
			// All remaining windows coincide with a centroid: duplicate
			// centroids produce empty clusters, which compaction drops.
			pick = rng.intn(n)
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}

	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, cols)
	}
	for iter := 0; iter < kmeansIters; iter++ {
		if err := cancelled(); err != nil {
			return nil, err
		}
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(p, cent); d < bestD {
					bestD, best = d, c
				}
			}
			if iter == 0 || assign[i] != best {
				changed = true
			}
			assign[i] = best
		}
		if !changed {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // empty cluster keeps its centroid
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return assign, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func meanOf(points [][]float64, idx []int) []float64 {
	m := make([]float64, len(points[0]))
	for _, i := range idx {
		for j, v := range points[i] {
			m[j] += v
		}
	}
	for j := range m {
		m[j] /= float64(len(idx))
	}
	return m
}

// RunPhased executes a phase-sampled measurement of total instructions on
// a warmed target: the windows run in order, each cluster representative
// times its ENTIRE window in detail, every other window fast-forwards. The
// stream advances exactly total instructions — identical stream evolution
// to a uniform sampled run of the same total. Timing whole windows keeps
// the measured span exactly congruent with the profiled window, so the
// profile's per-window features and the calibration covariates describe
// precisely what was measured. observe, if non-nil, fires per detailed
// interval with Index = the cluster id. Options and profile must have been
// validated (Check).
func RunPhased(t Target, total uint64, opt Options, p Profile, observe func(Interval)) Estimate {
	lens := WindowLengths(total, p.Windows)
	est := Estimate{
		Total:     total,
		Intervals: len(p.Reps),
		Phased:    true,
	}
	cpis := make([]float64, len(p.Reps))
	var clock sim.Time
	k := 0
	for w := 0; w < p.Windows; w++ {
		n := lens[w]
		if k >= len(p.Reps) || p.Reps[k] != w {
			t.Warm(n)
			continue
		}
		r := t.Interval(k, n)
		dur := r.Cycles - clock
		clock = r.Cycles
		cpi := float64(dur) / float64(n)
		cpis[k] = cpi
		est.Detailed += n
		est.CPI.Observe(cpi)
		est.WCPI.Observe(cpi, float64(p.Weights[k]))
		est.L1DHits += r.L1DHits
		est.L1DMisses += r.L1DMisses
		est.L2Loads += r.L2Loads
		est.L2Stores += r.L2Stores
		if observe != nil {
			observe(Interval{Index: k, Cycles: dur, Result: r})
		}
		k++
	}
	est.FinalClock = clock
	// Plain stratified estimate: every window costs its cluster's observed
	// CPI. Callers with per-interval covariates sharpen this with Calibrate.
	var cycles float64
	for k, cpi := range cpis {
		cycles += cpi * float64(p.Weights[k])
	}
	est.PhaseCycles = cycles
	est.PhaseCI = phaseCI(p, cpis)
	return est
}

// phaseCI derives the 95% confidence half-width on the phased cycle
// estimate from within-cluster spread: each cluster contributes its
// instruction weight times the standard error of its windows' CPI-proxy
// values, calibrated to observed-CPI scale by the representative's
// observed/proxy ratio. One sample per stratum makes this an estimate, not
// an exact interval; single-window clusters contribute zero, mirroring
// stats.Sample's n<2 behavior.
func phaseCI(p Profile, cpis []float64) float64 {
	col := len(p.Features[0]) - 1 // CPI proxy column
	var sumsq float64
	for k, rep := range p.Reps {
		var s stats.Sample
		for w, a := range p.Assign {
			if a == k {
				s.Observe(p.Features[w][col])
			}
		}
		if s.N() < 2 {
			continue
		}
		ratio := 1.0
		if repProxy := p.Features[rep][col]; repProxy > 0 && cpis[k] > 0 {
			ratio = cpis[k] / repProxy
		}
		se := float64(p.Weights[k]) * s.StdDev() * ratio / math.Sqrt(float64(s.N()))
		sumsq += se * se
	}
	return 1.96 * math.Sqrt(sumsq)
}
