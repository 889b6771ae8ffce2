package exec

import "numacs/internal/colstore"

// Costs holds the calibrated cost-model constants. Defaults are tuned so the
// simulated machines reproduce Table 1 and the headline ratios of the paper
// (see the calibration tests and EXPERIMENTS.md).
type Costs struct {
	// ScanCyclesPerByte is the compute cost of the SIMD scan kernel.
	ScanCyclesPerByte float64
	// ScanInstrPerByte feeds the IPC proxy.
	ScanInstrPerByte float64
	// MatCyclesPerAccess is the per-qualifying-row compute cost of
	// materialization (IV probe + dictionary decode + output write).
	MatCyclesPerAccess float64
	// MatInstrPerAccess feeds the IPC proxy.
	MatInstrPerAccess float64
	// IdxCyclesPerAccess is the per-position compute cost of index lookups.
	IdxCyclesPerAccess float64
	// OutBytesPerMatch is the output-vector bytes written per qualifying row.
	OutBytesPerMatch float64
	// QueryOverheadSeconds is the fixed per-query session/parse/plan cost,
	// modelled as compute on the client's home socket.
	QueryOverheadSeconds float64
	// UnboundStreamPenalty scales the per-thread streaming and random-access
	// rate of tasks executed by unbound workers (the OS strategy): it models
	// the combined cost of OS thread migration, prefetcher restarts, and
	// cross-socket queueing that a NUMA-agnostic system suffers. This is the
	// one deliberately calibrated constant, set to reproduce the ~5x gap of
	// Figures 1 and 8; the ablation benchmark quantifies its influence.
	UnboundStreamPenalty float64
	// IndexSelectivityThreshold is the optimizer's cutoff: predicates at or
	// below this selectivity use index lookups when an index exists
	// (Section 6.1.5 observes the switch between 0.1% and 1%).
	IndexSelectivityThreshold float64
	// IndexAccessesPerMatch is the pointer-chasing cost of index lookups in
	// dependent cache-line accesses per qualifying position.
	IndexAccessesPerMatch float64
	// MatMissRate is the fraction of materialization dictionary probes that
	// miss the last-level cache and reach DRAM; dictionaries largely fit in
	// the L3, which keeps materialization CPU-intensive (Section 6.1.5).
	MatMissRate float64
	// BitvectorSelectivity is the threshold above which the find phase emits
	// its qualifying matches as a bitvector (one bit per row) instead of a
	// position list (4 bytes per match) — the two result formats of Section
	// 5.2 ("for high selectivities, a bitvector format is preferred").
	BitvectorSelectivity float64
	// IdxMissRate is the same for index pointer chasing (postings are
	// colder than dictionaries).
	IdxMissRate float64
	// DeltaScanCyclesPerByte is the compute cost of scanning uncompressed
	// delta rows: predicate evaluation on raw 8-byte values cannot use the
	// bit-packed SIMD kernel, so it burns more cycles per byte than the
	// main's scan (on top of the delta's larger bytes-per-row).
	DeltaScanCyclesPerByte float64
	// DeltaWriteBytesPerRow is the DRAM traffic one delta append generates:
	// the entry itself plus amortized fragment-local dictionary maintenance.
	DeltaWriteBytesPerRow float64
	// SharedPredCyclesPerByte is the marginal compute of each ADDITIONAL
	// predicate a shared scan pass evaluates per chunk: the pass unpacks the
	// bit-compressed values once (ScanCyclesPerByte, load + decode
	// dominated) and then runs one SIMD range-compare per further member on
	// the decoded registers — about half a full private scan kernel, so
	// cohort sharing keeps a compute margin beyond two members on top of
	// its N-fold memory-traffic saving.
	SharedPredCyclesPerByte float64
	// SharedPredInstrPerByte is the IPC-proxy counterpart of the marginal
	// predicate evaluation.
	SharedPredInstrPerByte float64
}

// SharedScanCyclesPerByte returns the per-byte compute of an n-predicate
// shared scan pass: one decode plus n-1 marginal predicate evaluations.
// n = 1 is the private scan: the result is ScanCyclesPerByte exactly.
func (c *Costs) SharedScanCyclesPerByte(n int) float64 {
	return c.ScanCyclesPerByte + float64(n-1)*c.SharedPredCyclesPerByte
}

// SharedScanInstrPerByte returns the instructions-per-byte proxy of an
// n-predicate shared scan pass; n = 1 is the private scan's
// ScanInstrPerByte exactly.
func (c *Costs) SharedScanInstrPerByte(n int) float64 {
	return c.ScanInstrPerByte + float64(n-1)*c.SharedPredInstrPerByte
}

// SharedDeltaCyclesPerByte returns the per-byte compute of an n-predicate
// shared delta-fragment scan: the uncompressed row is loaded once and each
// further member adds a marginal compare. n = 1 is the private delta scan's
// DeltaScanCyclesPerByte exactly.
func (c *Costs) SharedDeltaCyclesPerByte(n int) float64 {
	return c.DeltaScanCyclesPerByte + float64(n-1)*c.SharedPredCyclesPerByte
}

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs {
	return Costs{
		ScanCyclesPerByte:         0.5,
		ScanInstrPerByte:          1.0,
		MatCyclesPerAccess:        15,
		MatInstrPerAccess:         60,
		IdxCyclesPerAccess:        20,
		OutBytesPerMatch:          colstore.ValueSize + 4, // value + position
		QueryOverheadSeconds:      30e-6,
		UnboundStreamPenalty:      0.15,
		IndexSelectivityThreshold: 0.001,
		IndexAccessesPerMatch:     1.2,
		MatMissRate:               0.1,
		IdxMissRate:               0.6,
		BitvectorSelectivity:      0.02,
		DeltaScanCyclesPerByte:    1.0,
		DeltaWriteBytesPerRow:     16,
		// Derived from BenchmarkSharedPred at the benchmark bitcase (12):
		// with r the measured shared/private ns-per-row ratio of an n=8
		// cohort (~0.60), the marginal predicate costs
		// Scan*(n*r-1)/(n-1) ~ 0.27 cycles/byte — rounded down to 0.25; a
		// shared pass is a saving, not a free ride. The instr counterpart
		// keeps the 2 instr/cycle ratio of the scan kernel. The derivation
		// test (TestSharedPredCostDerivation) re-measures the ratio and pins
		// the constant inside the measured band.
		SharedPredCyclesPerByte: 0.25,
		SharedPredInstrPerByte:  0.5,
	}
}
