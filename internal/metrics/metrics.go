// Package metrics collects the performance counters the paper reports from
// Linux, SAP HANA, and Intel PCM: per-socket memory throughput, QPI data and
// total traffic, local/remote LLC load misses, IPC, CPU load, task counts,
// stolen tasks, and query latencies. The simulator has perfect knowledge, so
// these counters are exact rather than sampled.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Counters accumulates all performance metrics of a run.
type Counters struct {
	Sockets int

	// Memory bytes served by each socket's memory controller.
	MCBytes []float64
	// Memory bytes read by cores of each socket, split by locality.
	LocalBytes  []float64
	RemoteBytes []float64

	// Interconnect traffic in bytes: data payload vs everything (payload +
	// protocol/coherence overhead), per the Fig. 8 "QPI traffic" vs "QPI
	// data traffic" distinction.
	LinkDataBytes  float64
	LinkTotalBytes float64

	// LLC load-miss proxy: cache lines fetched from DRAM, by locality.
	LLCLocal  float64
	LLCRemote float64

	// Compute: instructions retired (work-proportional proxy) and busy
	// cycles, per socket.
	Instructions []float64
	BusyCycles   []float64

	// Scheduler counters.
	TasksExecuted uint64
	TasksStolen   uint64 // inter-socket steals
	QueriesDone   uint64
	// WorkerBusySeconds sums, over all worker threads, the time spent
	// executing tasks; CPU load is this over window x hardware contexts.
	WorkerBusySeconds float64

	// Scheduler saturation signals, sampled by the sched watchdog each run
	// (Section 5.1's watchdog observability, consumed by the admission
	// controller's reports): SatSamples counts samples, the sums divide by it
	// for means, and SatTGMaxDepth is the deepest single-thread-group queue
	// seen in any sample.
	SatSamples     uint64
	SatFreeSum     float64 // free workers summed over samples
	SatParkedSum   float64 // parked workers summed over samples
	SatQueueSum    float64 // machine-wide queued tasks summed over samples
	SatTGMaxDepth  int     // deepest single-TG queue observed
	SatUnsaturated uint64  // samples with an unsaturated TG that had queued tasks

	latencies Histogram
}

// New creates counters for a machine with the given socket count.
func New(sockets int) *Counters {
	return &Counters{
		Sockets:      sockets,
		MCBytes:      make([]float64, sockets),
		LocalBytes:   make([]float64, sockets),
		RemoteBytes:  make([]float64, sockets),
		Instructions: make([]float64, sockets),
		BusyCycles:   make([]float64, sockets),
	}
}

// AddMemoryTraffic records bytes read by a core on srcSocket from memory on
// dstSocket, with the link bytes (data payload and total including
// coherence) the access generated.
func (c *Counters) AddMemoryTraffic(srcSocket, dstSocket int, bytes, linkData, linkTotal float64) {
	c.MCBytes[dstSocket] += bytes
	lines := bytes / 64
	if srcSocket == dstSocket {
		c.LocalBytes[srcSocket] += bytes
		c.LLCLocal += lines
	} else {
		c.RemoteBytes[srcSocket] += bytes
		c.LLCRemote += lines
	}
	c.LinkDataBytes += linkData
	c.LinkTotalBytes += linkTotal
}

// AddCompute records instructions and busy cycles on a socket.
func (c *Counters) AddCompute(socket int, instructions, cycles float64) {
	c.Instructions[socket] += instructions
	c.BusyCycles[socket] += cycles
}

// AddSaturationSample records one scheduler saturation observation: the
// free and parked worker counts, the machine-wide queued-task total and the
// deepest thread group's queue at the sampling instant. unsaturated reports
// whether any thread group had idle workers alongside queued tasks (the
// watchdog's wake-a-thread condition).
func (c *Counters) AddSaturationSample(free, parked, queued, maxDepth int, unsaturated bool) {
	c.SatSamples++
	c.SatFreeSum += float64(free)
	c.SatParkedSum += float64(parked)
	c.SatQueueSum += float64(queued)
	c.SatTGMaxDepth = max(c.SatTGMaxDepth, maxDepth)
	if unsaturated {
		c.SatUnsaturated++
	}
}

// MeanFreeWorkers returns the mean free-worker count over the saturation
// samples (0 when nothing was sampled).
func (c *Counters) MeanFreeWorkers() float64 {
	if c.SatSamples == 0 {
		return 0
	}
	return c.SatFreeSum / float64(c.SatSamples)
}

// MeanQueuedTasks returns the mean machine-wide task-queue depth over the
// saturation samples.
func (c *Counters) MeanQueuedTasks() float64 {
	if c.SatSamples == 0 {
		return 0
	}
	return c.SatQueueSum / float64(c.SatSamples)
}

// AddLatency records a completed query latency in seconds.
func (c *Counters) AddLatency(seconds float64) {
	c.latencies.Record(seconds)
	c.QueriesDone++
}

// Reset zeroes every counter (used at the end of warmup).
func (c *Counters) Reset() {
	for i := 0; i < c.Sockets; i++ {
		c.MCBytes[i] = 0
		c.LocalBytes[i] = 0
		c.RemoteBytes[i] = 0
		c.Instructions[i] = 0
		c.BusyCycles[i] = 0
	}
	c.LinkDataBytes = 0
	c.LinkTotalBytes = 0
	c.LLCLocal = 0
	c.LLCRemote = 0
	c.TasksExecuted = 0
	c.TasksStolen = 0
	c.QueriesDone = 0
	c.WorkerBusySeconds = 0
	c.SatSamples = 0
	c.SatFreeSum = 0
	c.SatParkedSum = 0
	c.SatQueueSum = 0
	c.SatTGMaxDepth = 0
	c.SatUnsaturated = 0
	c.latencies.Reset()
}

// TotalMCBytes sums memory bytes served across sockets.
func (c *Counters) TotalMCBytes() float64 {
	t := 0.0
	for _, b := range c.MCBytes {
		t += b
	}
	return t
}

// IPC returns the machine-wide instructions-per-cycle proxy.
func (c *Counters) IPC() float64 {
	ins, cyc := 0.0, 0.0
	for i := 0; i < c.Sockets; i++ {
		ins += c.Instructions[i]
		cyc += c.BusyCycles[i]
	}
	if cyc == 0 {
		return 0
	}
	return ins / cyc
}

// LatencyStats summarizes the latency distribution. P99 is the tail the
// admission-control experiments bound under overload.
type LatencyStats struct {
	N                        int
	Mean, Min, Max           float64
	P5, P25, P50, P75, P95   float64
	P99                      float64
	StdDev, CoeffOfVariation float64
}

// Latencies computes distribution statistics over recorded latencies.
func (c *Counters) Latencies() LatencyStats {
	h := &c.latencies
	n := h.N()
	if n == 0 {
		return LatencyStats{}
	}
	mean := h.Mean()
	ss := 0.0
	for i, v := range h.vals {
		d := v - mean
		for k := h.counts[i]; k > 0; k-- {
			ss += d * d
		}
	}
	sd := math.Sqrt(ss / float64(n))
	cv := 0.0
	if mean > 0 {
		cv = sd / mean
	}
	return LatencyStats{
		N: n, Mean: mean, Min: h.Percentile(0), Max: h.Max(),
		P5: h.Percentile(5), P25: h.Percentile(25), P50: h.P50(),
		P75: h.Percentile(75), P95: h.Percentile(95), P99: h.P99(),
		StdDev: sd, CoeffOfVariation: cv,
	}
}

// Histogram records a scalar sample stream (latencies, waits) for exact
// percentile reporting. The simulator has perfect knowledge, so samples are
// kept exactly rather than bucketed, as a multiset: each distinct value once,
// with its count. Simulated latencies are step multiples, so a store's
// memory grows with the distinct values, not with the samples. Every read
// gives what a sorted copy of the samples would: order statistics by
// cumulative count, sums over each value count times in ascending order.
// The zero value is empty and ready to use. Counters keeps its latencies in
// one, and so do the admission controller and the multi-tenant workload
// generator.
type Histogram struct {
	vals   []float64 // distinct values, ascending
	counts []int     // counts[i] samples equal vals[i]
	n      int       // samples recorded, pend's included
	// pend buffers the values Record did not find in vals, unsorted, until
	// fold merges them in: max(64, len(vals)) of them, so a stream of
	// distinct values costs O(log D) per sample, amortized.
	pend []float64
}

// Record adds one sample. Once every value recorded is among the distinct
// values already held, Record allocates nothing.
func (h *Histogram) Record(v float64) {
	h.n++
	if n := len(h.vals); n > 0 {
		// Find the last value not above v. Each step compiles to a
		// conditional move, so the search mispredicts no branch on v.
		i := 0
		for n > 1 {
			half := n >> 1
			if h.vals[i+half] <= v {
				i += half
			}
			n -= half
		}
		if h.vals[i] == v {
			h.counts[i]++
			return
		}
	}
	h.pend = append(h.pend, v)
	if len(h.pend) >= max(64, len(h.vals)) {
		h.fold()
	}
}

// fold merges the pending samples into the distinct values.
func (h *Histogram) fold() {
	if len(h.pend) == 0 {
		return
	}
	slices.Sort(h.pend)
	h.insert(h.pend, nil)
	h.pend = h.pend[:0]
}

// insert adds the ascending values src, src[j] counted w[j] times (once each
// when w is nil), to the distinct values. It merges in place from the back,
// so it allocates only when vals and counts must grow.
func (h *Histogram) insert(src []float64, w []int) {
	add := 0 // distinct src values vals lacks
	for i, j := 0, 0; j < len(src); j++ {
		if j > 0 && src[j] == src[j-1] {
			continue
		}
		for i < len(h.vals) && h.vals[i] < src[j] {
			i++
		}
		if i == len(h.vals) || h.vals[i] != src[j] {
			add++
		}
	}
	i, k := len(h.vals)-1, len(h.vals)+add-1
	h.vals = slices.Grow(h.vals, add)[:k+1]
	h.counts = slices.Grow(h.counts, add)[:k+1]
	for j := len(src) - 1; j >= 0; k-- {
		v, c := src[j], 0
		for ; j >= 0 && src[j] == v; j-- {
			if w == nil {
				c++
			} else {
				c += w[j]
			}
		}
		for ; i >= 0 && h.vals[i] > v; i, k = i-1, k-1 {
			h.vals[k], h.counts[k] = h.vals[i], h.counts[i]
		}
		if i >= 0 && h.vals[i] == v {
			c += h.counts[i]
			i--
		}
		h.vals[k], h.counts[k] = v, c
	}
}

// N returns the number of recorded samples.
func (h *Histogram) N() int { return h.n }

// Mean returns the sample mean (0 when empty), summed in ascending order.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	h.fold()
	sum := 0.0
	for i, v := range h.vals {
		for k := h.counts[i]; k > 0; k-- {
			sum += v
		}
	}
	return sum / float64(h.n)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	h.fold()
	return h.vals[len(h.vals)-1]
}

// Percentile returns the p-th percentile (0..100) with linear interpolation
// between order statistics, or 0 when no samples were recorded.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	h.fold()
	if p <= 0 {
		return h.vals[0]
	}
	idx := p / 100 * float64(h.n-1)
	lo := int(idx)
	if p >= 100 || lo >= h.n-1 {
		return h.vals[len(h.vals)-1]
	}
	frac := idx - float64(lo)
	// Walk the cumulative counts to order statistics lo and lo+1.
	i, cum := 0, h.counts[0]
	for cum <= lo {
		i++
		cum += h.counts[i]
	}
	next := h.vals[i]
	if lo+1 == cum {
		next = h.vals[i+1]
	}
	return h.vals[i]*(1-frac) + next*frac
}

// P50 returns the median.
func (h *Histogram) P50() float64 { return h.Percentile(50) }

// P99 returns the 99th percentile — the tail metric the admission
// experiment bounds.
func (h *Histogram) P99() float64 { return h.Percentile(99) }

// Merge adds every sample of other into h (other's samples are unchanged).
// The multi-tenant reports use it to aggregate per-tenant distributions into
// a machine-wide one.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	other.fold()
	h.insert(other.vals, other.counts)
	h.n += other.n
}

// Reset drops all samples, keeping the storage for reuse.
func (h *Histogram) Reset() {
	h.vals, h.counts, h.pend = h.vals[:0], h.counts[:0], h.pend[:0]
	h.n = 0
}

// Fingerprint renders every counter as stable text, one field per line:
// floats in their shortest exact form, per-socket slices element by element,
// the saturation samples, and the full latency histogram (each distinct
// latency with its count, ascending). Two runs are the same run exactly when
// their fingerprints are equal.
func Fingerprint(c *Counters) string {
	var b strings.Builder
	for _, f := range []struct {
		name string
		v    any
	}{
		{"sockets", c.Sockets}, {"mc_bytes", c.MCBytes},
		{"local_bytes", c.LocalBytes}, {"remote_bytes", c.RemoteBytes},
		{"link_data_bytes", c.LinkDataBytes}, {"link_total_bytes", c.LinkTotalBytes},
		{"llc_local", c.LLCLocal}, {"llc_remote", c.LLCRemote},
		{"instructions", c.Instructions}, {"busy_cycles", c.BusyCycles},
		{"tasks_executed", c.TasksExecuted}, {"tasks_stolen", c.TasksStolen},
		{"queries_done", c.QueriesDone}, {"worker_busy_seconds", c.WorkerBusySeconds},
		{"sat_samples", c.SatSamples}, {"sat_free_sum", c.SatFreeSum},
		{"sat_parked_sum", c.SatParkedSum}, {"sat_queue_sum", c.SatQueueSum},
		{"sat_tg_max_depth", c.SatTGMaxDepth}, {"sat_unsaturated", c.SatUnsaturated},
		{"latencies", c.latencies.N()},
	} {
		// %v prints a float64 in the fewest digits that read back exactly.
		fmt.Fprintf(&b, "%s %v\n", f.name, f.v)
	}
	h := &c.latencies
	h.fold()
	for i, v := range h.vals {
		fmt.Fprintf(&b, "latency %v x%d\n", v, h.counts[i])
	}
	return b.String()
}

// ThroughputQPM converts the completed-query count over a measurement window
// (seconds) into queries per minute.
func (c *Counters) ThroughputQPM(window float64) float64 {
	if window <= 0 {
		return 0
	}
	return float64(c.QueriesDone) / window * 60
}

// MemoryThroughputGiBs returns per-socket memory throughput in GiB/s over a
// window in seconds.
func (c *Counters) MemoryThroughputGiBs(window float64) []float64 {
	out := make([]float64, c.Sockets)
	for i, b := range c.MCBytes {
		out[i] = b / window / (1 << 30)
	}
	return out
}

// CPULoad returns machine-wide CPU utilization in [0,1]: worker busy time
// over window x hardware contexts.
func (c *Counters) CPULoad(window float64, totalThreads int) float64 {
	avail := window * float64(totalThreads)
	if avail == 0 {
		return 0
	}
	load := c.WorkerBusySeconds / avail
	if load > 1 {
		load = 1
	}
	return load
}
