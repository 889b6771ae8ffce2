package exec

import (
	"slices"

	"numacs/internal/colstore"
)

// This file is the bridge between the two halves of the engine: the exec
// operators plan and *cost* scans over a simulated machine (sim.Flow
// traffic, analytic match counts), while the colstore batch kernels touch
// real data. The kernel layer plans with the operators' own fan-out
// (PlanSpans) and executes the resulting spans with the real word-parallel
// kernels, so the cost model's claims (ScanCyclesPerByte for private finds,
// the SharedPredCyclesPerByte marginal cost of cohort members,
// MatCyclesPerAccess for the output phase) are backed by runnable,
// benchmarked code paths rather than constants alone.

// KernelSpan is one executable slice of a scan plan: rows [From, To) of a
// column, tagged with the socket whose memory backs the majority of those IV
// bytes (-1 when the column has not been placed) and the index Part of the
// scheduling partition the rows lie in. It is the hand-off between the
// simulated planner and the colstore batch kernels.
type KernelSpan struct {
	From, To, Socket, Part int
}

// PlanSpans is the find-phase fan-out of ScanOp, SharedScanOp and JoinOp:
// scheduling partitions from PartitionsWeighted (replica- and IVP-aware,
// weighted away from loaded memory controllers), a per-partition task count
// from the concurrency hint (TasksPerPartition), and an even row split
// within each partition (SplitRows). The spans are written into buf's
// storage in partition order, which is row order: they cover the column's
// row space exactly once, and an empty partition contributes none.
func PlanSpans(buf []KernelSpan, col *colstore.Column, mcLoad []float64, hint int) []KernelSpan {
	var partBuf [8]RowRange
	var rowBuf [16][2]int
	parts, rows := PartitionsWeighted(partBuf[:0], col, mcLoad), rowBuf[:0]
	per := TasksPerPartition(hint, len(parts))
	n := 0
	for _, part := range parts {
		n += min(per, part.To-part.From)
	}
	spans := slices.Grow(buf[:0], n)
	for i, part := range parts {
		rows = SplitRows(rows, part.From, part.To, per)
		for _, fr := range rows {
			spans = append(spans, KernelSpan{From: fr[0], To: fr[1], Socket: part.Socket, Part: i})
		}
	}
	return spans
}

// ScanKernel executes a planned range scan with the word-parallel batch
// kernels: the value-domain predicate [loVal, hiVal] is encoded to a vid
// window once and every span is scanned comparing on codes — the dictionary
// is never probed during the find phase. Qualifying absolute positions are
// appended to out; with spans from PlanSpans they come out in ascending
// order. A predicate with no dictionary overlap appends nothing. This is
// the real-data counterpart of the simulated find phase costed at
// Costs.ScanCyclesPerByte.
func ScanKernel(col *colstore.Column, loVal, hiVal int64, spans []KernelSpan, out []uint32) []uint32 {
	loVid, hiVid, ok := col.EncodePredicate(loVal, hiVal)
	if !ok {
		return out
	}
	for _, sp := range spans {
		out = col.ScanPositions(loVid, hiVid, sp.From, sp.To, out)
	}
	return out
}

// SharedScanKernel executes a planned N-predicate shared scan: every span's
// packed words are streamed once and all member predicates (value-domain
// ranges, encoded to vid windows up front; members with no dictionary
// overlap match nothing) are evaluated on each window. This is the
// decode-once/compare-many execution the shared-scan cost model describes —
// the window work is charged once (ScanCyclesPerByte) and each further
// member costs only its marginal compare (SharedPredCyclesPerByte). outs
// must have one slice per predicate; each member's appended positions are
// bit-identical to a private ScanKernel with its predicate. The (possibly
// grown) slices are returned.
func SharedScanKernel(col *colstore.Column, preds [][2]int64, spans []KernelSpan, outs [][]uint32) [][]uint32 {
	ranges := make([]colstore.SharedRange, len(preds))
	for i, pr := range preds {
		lo, hi, ok := col.EncodePredicate(pr[0], pr[1])
		if !ok {
			lo, hi = 1, 0 // empty vid window: matches nothing
		}
		ranges[i] = colstore.SharedRange{Lo: lo, Hi: hi}
	}
	for _, sp := range spans {
		outs = col.ScanSharedPositions(ranges, sp.From, sp.To, outs)
	}
	return outs
}

// MaterializeKernel gathers the values of the qualifying positions with the
// batched materialization path (one batch unpack per dense position run
// instead of a per-row decode) — the real-data counterpart of the simulated
// output phase costed at Costs.MatCyclesPerAccess.
func MaterializeKernel(col *colstore.Column, positions []uint32) []int64 {
	out := make([]int64, len(positions))
	col.Materialize(positions, out)
	return out
}
