package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is a measured value and not one outlier.
const tailMinBeyond = 10

// tail is a latency tail reading: the Pct-th percentile (nearest rank) of
// N samples, with Beyond samples above it.
type tail struct {
	Pct    int
	Value  float64
	N      int
	Beyond int
}

// tailPercentile picks the highest whole percentile, from p50 to p99, that
// leaves at least tailMinBeyond samples beyond its nearest-rank position.
// ok is false when even the median leaves fewer than that many (fewer than
// 2×tailMinBeyond samples).
func tailPercentile(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		if beyond := n - rank; beyond >= tailMinBeyond {
			return tail{Pct: p, Value: s[rank-1], N: n, Beyond: beyond}, true
		}
	}
	return tail{N: n}, false
}

// unitTail applies the tail rule to each unit's own samples and returns
// the median of the units' tails with each unit's reading. A unit's
// slowest points are the same few configurations in every unit, so the
// tail of the pooled samples sits at the edge of that cluster and jumps
// with its noise; one unit's tail lies past it, in the dense part of the
// distribution, and the median over units keeps it steady. ok is false
// when a unit has too few samples for a tail.
func unitTail(units [][]float64) (value float64, tails []tail, ok bool) {
	vals := make([]float64, len(units))
	for i, xs := range units {
		t, ok := tailPercentile(xs)
		if !ok {
			return 0, nil, false
		}
		tails = append(tails, t)
		vals[i] = t.Value
	}
	return median(vals), tails, len(units) > 0
}
