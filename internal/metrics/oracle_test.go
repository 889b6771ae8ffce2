package metrics

// The retained sorted-slice latency store: the multiset Histogram and every
// Counters latency read must agree with it bit for bit
// (TestHistogramMatchesOracle).

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sliceHistogram is the sample-per-slot Histogram the multiset replaced: it
// keeps every sample and sorts lazily.
type sliceHistogram struct {
	samples []float64
	sorted  bool
}

func (h *sliceHistogram) Record(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

func (h *sliceHistogram) N() int { return len(h.samples) }

// Mean sums in insertion order until a Max or Percentile call sorts the
// samples; the oracle test sorts before every Mean, since the multiset
// always sums in ascending order.
func (h *sliceHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

func (h *sliceHistogram) Max() float64 {
	h.sortSamples()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

func (h *sliceHistogram) Percentile(p float64) float64 {
	h.sortSamples()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	idx := p / 100 * float64(n-1)
	lo := int(idx)
	if lo >= n-1 {
		return h.samples[n-1]
	}
	frac := idx - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[lo+1]*frac
}

func (h *sliceHistogram) Merge(other *sliceHistogram) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	h.samples = append(h.samples, other.samples...)
	h.sorted = false
}

func (h *sliceHistogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
}

func (h *sliceHistogram) sortSamples() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// sliceLatencies is the Counters.Latencies body over a per-sample slice.
func sliceLatencies(latencies []float64) LatencyStats {
	n := len(latencies)
	if n == 0 {
		return LatencyStats{}
	}
	sorted := make([]float64, n)
	copy(sorted, latencies)
	sort.Float64s(sorted)
	pct := func(p float64) float64 {
		idx := p / 100 * float64(n-1)
		lo := int(idx)
		if lo >= n-1 {
			return sorted[n-1]
		}
		frac := idx - float64(lo)
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n))
	cv := 0.0
	if mean > 0 {
		cv = sd / mean
	}
	return LatencyStats{
		N: n, Mean: mean, Min: sorted[0], Max: sorted[n-1],
		P5: pct(5), P25: pct(25), P50: pct(50), P75: pct(75), P95: pct(95),
		P99:    pct(99),
		StdDev: sd, CoeffOfVariation: cv,
	}
}

// sliceFingerprintLatencies is the latency tail of the Fingerprint text
// over a per-sample slice: the count, then each distinct latency with its
// run length, ascending.
func sliceFingerprintLatencies(latencies []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "latencies %v\n", len(latencies))
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	for i, j := 0, 0; i < len(sorted); i = j {
		for j = i; j < len(sorted) && sorted[j] == sorted[i]; j++ {
		}
		fmt.Fprintf(&b, "latency %v x%d\n", sorted[i], j-i)
	}
	return b.String()
}
