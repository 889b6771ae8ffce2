package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// rank returns the nearest-rank p-th percentile (0 < p <= 100) of sorted
// samples: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func rank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The tolerance keeps p99.9 of 100000 samples at rank 99900 despite
	// 99.9 having no exact binary form.
	i := int(math.Ceil(p/100*float64(n)-1e-6)) - 1
	return sorted[max(0, min(i, n-1))]
}

// tail returns the highest percentile, at most want, that leaves at least
// minTail samples beyond it, with its value. With fewer than minTail+1
// samples no percentile qualifies and it returns (0, minimum).
func tail(sorted []float64, want float64) (p, v float64) {
	n := len(sorted)
	if n <= minTail {
		return 0, rank(sorted, 0)
	}
	p = min(want, 100*float64(n-minTail)/float64(n))
	return p, rank(sorted, p)
}

// latency returns the p-th percentile of sorted simulated latencies,
// interpolated inside the simulator step that holds it: the simulator only
// sees completions at step ends, so the samples of one step are taken as
// spread evenly over it.
func latency(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	const tol = 1e-6 * step // float noise in step-multiple latencies
	j := math.Ceil((rank(sorted, p) - tol) / step)
	lo := sort.SearchFloat64s(sorted, (j-1)*step+tol)
	hi := sort.SearchFloat64s(sorted, j*step+tol)
	frac := (p/100*float64(n) - float64(lo)) / float64(max(hi-lo, 1))
	return (j - 1 + math.Max(0, math.Min(1, frac))) * step
}

// quartiles returns the first quartile, median and third quartile of values
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(values, n=4), the rule the bounds in BENCHMARK.json
// are checked with.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic, clamp included.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sortedCopy returns the samples in ascending order without touching the
// input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
