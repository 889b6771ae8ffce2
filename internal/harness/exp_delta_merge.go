package harness

import (
	"fmt"
	"math/rand"
	"slices"

	"numacs/internal/adaptive"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/sim"
	"numacs/internal/workload"
)

// deltaMergeWindows is the number of virtual-time windows the experiment
// reports. The write phase occupies windows 5-9 (1-based), leaving a
// read-only baseline ramp before it and a recovery tail after it.
const deltaMergeWindows = 13

// deltaMergeScanCol and deltaMergeReplCol are the two columns the lifecycle
// plays out on: the scanned-and-written column whose delta growth degrades
// throughput until the merge folds it back, and the replicated column whose
// copies the write-guard must reclaim once writes reach it.
const (
	deltaMergeScanCol = 2 // socket 0 under the block layout
	deltaMergeReplCol = 5 // socket 1, replicated on sockets 2 and 3 at setup
)

// deltaReadMix concentrates scans on the hot column with a warm secondary
// (the replicated column, so its copies keep earning traffic) over a uniform
// background.
type deltaReadMix struct {
	hot, warm  int
	pHot, pWrm float64
}

// Pick implements workload.Chooser.
func (m deltaReadMix) Pick(rng *rand.Rand, columns int) int {
	r := rng.Float64()
	if r < m.pHot {
		return m.hot % columns
	}
	if r < m.pHot+m.pWrm {
		return m.warm % columns
	}
	return rng.Intn(columns)
}

// deltaWriteMix sends most writes to the hot scanned column and the rest to
// the replicated column (turning it write-hot).
type deltaWriteMix struct {
	hot, warm int
	pHot      float64
}

// Pick implements workload.Chooser.
func (m deltaWriteMix) Pick(rng *rand.Rand, columns int) int {
	if rng.Float64() < m.pHot {
		return m.hot % columns
	}
	return m.warm % columns
}

// deltaMergeSpec is one delta-merge configuration on the 4-socket machine:
// parallel low-selectivity scans concentrated on one column (with a warm
// replicated secondary), and — when writes is set — an update-heavy write
// mix appended from socket-0 writers during the middle windows. The
// write-aware placer owns the whole lifecycle: the delta grows and degrades
// scans, the size trigger fires a background merge that restores the main,
// the write-guard reclaims the now write-hot replicas of the secondary, and
// the write-cold cleanup merge after the writers stop returns throughput to
// the read-only baseline. The move/partition/replicate levers are frozen
// (huge ImbalanceRatio) so the run isolates exactly the write path.
//
// Setup also registers a probe that appends the hot column's delta size to
// *kib whenever the flight recorder's sampler closes a window. It ticks
// before the writers, so it reads the size the window ended with; the last
// window closes after the run, and deltaMergeRun reads it from the table.
func deltaMergeSpec(s Scale, writes bool, kib *[]float64) Spec {
	sp := Spec{
		Label: "read-only baseline", Machine: FourSocket,
		Dataset: workload.DatasetConfig{
			Rows: s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1,
		},
		Placement: PlacementSpec{Kind: RR}, Skew: true, // block layout
		Replicas: []Replica{{Column: deltaMergeReplCol, Socket: 2}, {Column: deltaMergeReplCol, Socket: 3}},
		Clients:  256, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser:    deltaReadMix{hot: deltaMergeScanCol, warm: deltaMergeReplCol, pHot: 0.80, pWrm: 0.08},
		ClientSeed: 11,
		Warmup:     s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1, Windows: deltaMergeWindows,
	}
	window := sp.window()

	cfg := adaptive.DefaultConfig()
	cfg.Period = window / 4
	cfg.ImbalanceRatio = 1e9        // freeze move/partition/replicate: write-path levers only
	cfg.StaleReplicaFraction = 1e-9 // replicas live until the write-guard reclaims them
	cfg.MergeDeltaFraction = 0.4
	cfg.MergeTrafficFraction = 0.9 // size trigger governs the in-phase merge timing
	// The write-guard threshold scales with the balancing period (write bytes
	// accumulate per period, the footprint does not); the compressed virtual
	// horizon here makes periods tiny, so the default per-period fraction is
	// scaled down accordingly.
	cfg.WriteHotFraction = 0.001
	sp.Placer = &cfg

	var sizeRate func(*core.Engine, *colstore.Table)
	if writes {
		sp.Label = "mixed read/write"
		sp.Writers = &workload.WritersConfig{
			UpdateFraction: 0.8,
			Chooser:        deltaWriteMix{hot: deltaMergeScanCol, warm: deltaMergeReplCol, pHot: 0.8},
			Sockets:        []int{0}, // colocate appends with the hot column's socket
			Start:          4 * window, Stop: 9 * window, Seed: 5,
		}
		// Rate tuned so the hot column's delta crosses the merge threshold
		// ~3.2 windows into the 5-window write phase, leaving full windows of
		// monotonic degradation before the merge fires.
		sizeRate = sizeWriters(sp.Writers, deltaMergeScanCol, cfg.MergeDeltaFraction, 3.2*window)
	}
	sp.Setup = func(e *core.Engine, t *colstore.Table) {
		if sizeRate != nil {
			sizeRate(e, t)
		}
		col := t.Parts[0].Columns[deltaMergeScanCol]
		e.Sim.AddActor(sim.ActorFunc(func(float64) {
			if len(e.Trace.Sampler.Samples()) > len(*kib) {
				*kib = append(*kib, float64(col.DeltaBytes())/1024)
			}
		}))
	}
	return sp
}

// deltaMergeRun runs one delta-merge configuration and returns it with the
// hot column's per-window delta size in KiB.
func deltaMergeRun(s Scale, writes bool) (*engineRun, []float64) {
	var kib []float64
	r := runEngine(deltaMergeSpec(s, writes, &kib))
	kib = append(kib, float64(r.Table.Parts[0].Columns[deltaMergeScanCol].DeltaBytes())/1024)
	return r, kib
}

// runDeltaMerge reproduces the write-path lifecycle the main/delta
// architecture promises: appends degrade scans as the uncompressed delta
// grows, the background merge restores the read-optimized main (and
// throughput), and the write-guard reclaims replicas of columns that turned
// write-hot — the Section 7 update-rate concerns, actually firing.
func runDeltaMerge(s Scale) *Report {
	rep := &Report{ID: "delta-merge", Title: "Delta-store write path: append, scan degradation, merge, recovery"}

	base, baseKiB := deltaMergeRun(s, false)
	mixed, mixedKiB := deltaMergeRun(s, true)
	runs := []*engineRun{base, mixed}

	header := []string{"configuration"}
	for w := 0; w < deltaMergeWindows; w++ {
		header = append(header, fmt.Sprintf("w%d", w+1))
	}
	tp := rep.AddTable("throughput over virtual time (q/min per window; writes during w5-w9)", header)
	dk := rep.AddTable("hot column delta size at window end (KiB)", header)
	for i, r := range runs {
		tpRow, dkRow := []string{r.Spec.Label}, []string{r.Spec.Label}
		for w, v := range r.TP {
			tpRow = append(tpRow, f0(v))
			dkRow = append(dkRow, f1([][]float64{baseKiB, mixedKiB}[i][w]))
		}
		tp.AddRow(tpRow...)
		dk.AddRow(dkRow...)
	}

	sum := rep.AddTable("lifecycle summary", []string{
		"configuration", "pre-write TP", "min in-write TP", "recovered TP", "recovered/baseline",
		"merges", "inserts", "updates", "repl col copies", "final delta KiB"})
	for _, r := range runs {
		cols := r.Table.Parts[0].Columns
		copies := 1
		if cols[deltaMergeReplCol].Replicated() {
			copies = 3
		}
		var inserts, updates uint64
		if r.Writers != nil {
			inserts, updates = r.Writers.Inserts, r.Writers.Updates
		}
		sum.AddRow(r.Spec.Label, f0(meanf(r.TP[1:4])), f0(slices.Min(r.TP[4:9])), f0(recoveredTP(r.Result)),
			fmt.Sprintf("%.2fx", recoveredTP(r.Result)/recoveredTP(base.Result)),
			itoa(r.E.MergesCompleted), itoa(int(inserts)), itoa(int(updates)),
			itoa(copies), f1(float64(cols[deltaMergeScanCol].DeltaBytes()+cols[deltaMergeReplCol].DeltaBytes())/1024))
	}

	actionTable(rep, "write-aware placer actions (mixed run)", mixed.Placer.Actions, "from", "to", "KiB")
	return rep
}

// recoveredTP is the mean throughput of a delta-merge run's last two
// windows, after the cleanup merge folded the remaining delta.
func recoveredTP(r Result) float64 { return meanf(r.TP[deltaMergeWindows-2:]) }
