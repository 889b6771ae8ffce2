package exec

import "numacs/internal/colstore"

// This file is the bridge between the two halves of the engine: the exec
// operators plan and *cost* scans over a simulated machine (sim.Flow
// traffic, analytic match counts), while the colstore batch kernels touch
// real data. PlanSpans is the operators' own fan-out, and the kernel tests
// (kernels_test.go) execute its spans with the real word-parallel kernels,
// so the cost model's claims (ScanCyclesPerByte for private finds, the
// SharedPredCyclesPerByte marginal cost of cohort members,
// MatCyclesPerAccess for the output phase) are backed by runnable, tested
// code paths rather than constants alone.

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
	parts, per, n := spanParts(partBuf[:0], col, mcLoad, hint)
	return fillSpans(emptied(buf, n), parts, per)
}

// spanParts is the first half of PlanSpans: col's scheduling partitions,
// written into buf's storage, the tasks per partition, and the number of
// spans they make, so a caller can pick the spans' storage by their count.
func spanParts(buf []RowRange, col *colstore.Column, mcLoad []float64, hint int) (parts []RowRange, per, n int) {
	parts = PartitionsWeighted(buf, col, mcLoad)
	per = TasksPerPartition(hint, len(parts))
	for _, part := range parts {
		n += min(per, part.To-part.From)
	}
	return parts, per, n
}

// fillSpans is the second half of PlanSpans: it appends the spans of parts,
// per tasks each, to spans.
func fillSpans(spans []KernelSpan, parts []RowRange, per int) []KernelSpan {
	for i, part := range parts {
		// SplitRows's even split, written straight into the spans.
		rows := part.To - part.From
		k := min(per, rows)
		for j := 0; j < k; j++ {
			spans = append(spans, KernelSpan{From: part.From + rows*j/k, To: part.From + rows*(j+1)/k, Socket: part.Socket, Part: i})
		}
	}
	return spans
}
