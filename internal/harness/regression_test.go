package harness

import (
	"fmt"
	"testing"

	"numacs/internal/core"
	"numacs/internal/workload"
)

// TestReadOnlyScanPathsBitIdentical pins three fixed-seed read-only scenarios
// to their committed counter fingerprints. A column that is never written has
// a nil Delta, so the scan planner must take the identical code path, consume
// the identical RNG stream, and start the identical flows — any drift means
// the write path leaked into the read-only side.
func TestReadOnlyScanPathsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	ds := func(rows int) workload.DatasetConfig {
		return workload.DatasetConfig{Rows: rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1}
	}
	specs := []Spec{
		{Machine: FourSocket, Dataset: ds(60_000),
			Placement: PlacementSpec{Kind: RR}, Strategy: core.Bound,
			Clients: 64, Selectivity: 1e-5, Parallel: true,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 1},
		{Machine: FourSocket, Dataset: ds(60_000),
			Placement: PlacementSpec{Kind: IVP, Partitions: 4}, Strategy: core.Target,
			Clients: 32, Selectivity: 0.10, Parallel: true, Skew: true,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 3},
		{Machine: EightSocket, Dataset: ds(40_000),
			Placement: PlacementSpec{Kind: PP, Partitions: 4}, Strategy: core.OSched,
			Clients: 16, Selectivity: 1e-3, Parallel: false,
			Warmup: 0.02, Measure: 0.06, Step: 25e-6, Seed: 5},
	}
	for i, spec := range specs {
		assertFingerprintFile(t, fmt.Sprintf("readonly-%d", i), runEngine(spec).E.Counters)
	}
}
