package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and the "percentile" is a handful of outliers.
const minTail = 10

// median returns the middle value of vs (mean of the two middle values
// for an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianIn returns the median of ds expressed in unit.
func medianIn(unit time.Duration, ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return median(vs)
}

// percentileSorted returns the q-quantile (0 < q < 1) of an ascending
// slice by nearest rank, and whether at least minTail samples lie
// beyond it.
func percentileSorted(sorted []time.Duration, q float64) (v time.Duration, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minTail
}

// quartileSpread is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile as a share of the
// median, with the quartiles computed as Python's
// statistics.quantiles(values, n=4) does (exclusive method). It needs
// at least two values; fewer give 0.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	quart := func(i int) float64 { // i-th of the 3 cut points
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// sliceStats reduces one measured window to the slice-robust figures:
// per-slice rates and p99s are medianed so that one bad second cannot
// move them.
type sliceStats struct {
	opsPerS    float64   // median over slices of completions per second
	p50        float64   // median latency over the whole window, ns
	p99        float64   // median over slices of each slice's p99, ns; 0 when unsupported
	p99Samples int       // smallest per-slice sample count behind p99
	samples    int       // samples behind p50
	rates      []float64 // completions per second, slice by slice (0 where nothing completed)
	counts     []int     // completions, slice by slice
}

// p99MinSamples is the per-slice sample count below which no p99 is
// reported.
const p99MinSamples = 1000

// reduceSlices merges the streams' recorders slice by slice.
func reduceSlices(recs []*recorder, n int) sliceStats {
	st := sliceStats{p99Samples: math.MaxInt, rates: make([]float64, n), counts: make([]int, n)}
	var nonEmpty, p99s []float64
	var all []time.Duration
	p99OK := true
	for i := 0; i < n; i++ {
		var merged []time.Duration
		for _, r := range recs {
			merged = append(merged, r.slice(i)...)
			if rate, ok := r.rate(i); ok {
				st.rates[i] += rate
			}
		}
		st.counts[i] = len(merged)
		if st.rates[i] > 0 {
			nonEmpty = append(nonEmpty, st.rates[i])
		}
		slices.Sort(merged)
		v, ok := percentileSorted(merged, 0.99)
		p99OK = p99OK && ok && len(merged) >= p99MinSamples
		p99s = append(p99s, float64(v))
		st.p99Samples = min(st.p99Samples, len(merged))
		all = append(all, merged...)
	}
	// A slice in which nothing completed says nothing about the rate: the
	// next non-empty slice's span covers it.
	st.opsPerS = median(nonEmpty)
	slices.Sort(all)
	st.samples = len(all)
	if v, _ := percentileSorted(all, 0.50); len(all) > 0 {
		st.p50 = float64(v)
	}
	if p99OK {
		st.p99 = median(p99s)
	}
	return st
}
