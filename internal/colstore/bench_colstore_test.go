package colstore

// Kernel microbenchmarks of the batched chunk hot path, one per data-touching
// kernel family, across narrow/medium/wide bitcases (4/12/20/32 — an aligned
// fast-path case, two carry-loop cases, and the widest case). Each reports
// ns/row so the CI perf-regression gate (cmd/benchdiff over the BENCH_<run>
// artifacts) can diff kernel throughput run over run; the /scalar variants
// benchmark the retained scalar references, so the batched-vs-scalar margin
// is part of the recorded trajectory too.

import (
	"fmt"
	"runtime"
	"testing"

	"numacs/internal/cputime"
)

const benchRows = 1 << 20

// benchVector packs benchRows pseudo-random codes at the given bitcase. The
// code domain is capped so materialization benchmarks can dictionary-gather
// with a realistically sized dictionary.
func benchVector(bc uint) (*PackedVector, uint32) {
	max := uint32(uint64(1)<<bc - 1)
	if max > 1<<20-1 {
		max = 1<<20 - 1
	}
	v := NewPackedVector(bc, benchRows)
	s := uint32(12345)
	for i := 0; i < benchRows; i++ {
		s = s*1664525 + 1013904223
		v.Set(i, s&max)
	}
	return v, max
}

// benchWindow is a ~10%-selectivity code window over [0, max].
func benchWindow(max uint32) (lo, hi uint32) {
	return max / 4, max/4 + max/10
}

func reportNsPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkScanPositions benchmarks the find-phase range kernel: ScanRange's
// word-parallel kernel vs the retained scalar reference.
func BenchmarkScanPositions(b *testing.B) {
	for _, bc := range []uint{4, 12, 20, 32} {
		v, max := benchVector(bc)
		lo, hi := benchWindow(max)
		b.Run(fmt.Sprintf("bits=%d", bc), func(b *testing.B) {
			var out []uint32
			for i := 0; i < b.N; i++ {
				out = v.ScanRange(lo, hi, 0, benchRows, out[:0])
			}
			reportNsPerRow(b, benchRows)
		})
		b.Run(fmt.Sprintf("bits=%d/scalar", bc), func(b *testing.B) {
			var out []uint32
			for i := 0; i < b.N; i++ {
				out = v.scanRangeScalar(lo, hi, 0, benchRows, out[:0])
			}
			reportNsPerRow(b, benchRows)
		})
	}
}

// BenchmarkCountRange benchmarks the branchless batched counting kernel.
func BenchmarkCountRange(b *testing.B) {
	for _, bc := range []uint{4, 12, 20, 32} {
		v, max := benchVector(bc)
		lo, hi := benchWindow(max)
		b.Run(fmt.Sprintf("bits=%d", bc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = v.CountRange(lo, hi, 0, benchRows)
			}
			reportNsPerRow(b, benchRows)
		})
	}
}

// BenchmarkMaterialize benchmarks the output-phase gather: dense sorted
// positions take the batched window-unpack path, sparse ones the per-row
// fallback.
func BenchmarkMaterialize(b *testing.B) {
	for _, bc := range []uint{4, 12, 20, 32} {
		v, max := benchVector(bc)
		c := &Column{Name: "bench", Bitcase: bc, Rows: benchRows, IVec: v,
			Dict: make([]int64, int(max)+1)}
		for i := range c.Dict {
			c.Dict[i] = int64(i) * 3
		}
		dense := make([]uint32, 0, benchRows/2)
		sparse := make([]uint32, 0, benchRows/16)
		for i := 0; i < benchRows; i++ {
			if i%2 == 0 {
				dense = append(dense, uint32(i))
			}
			if i%16 == 0 {
				sparse = append(sparse, uint32(i))
			}
		}
		out := make([]int64, len(dense))
		b.Run(fmt.Sprintf("bits=%d/dense", bc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Materialize(dense, out[:len(dense)])
			}
			reportNsPerRow(b, len(dense))
		})
		b.Run(fmt.Sprintf("bits=%d/dense/scalar", bc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.materializeScalar(dense, out[:len(dense)])
			}
			reportNsPerRow(b, len(dense))
		})
		b.Run(fmt.Sprintf("bits=%d/sparse", bc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Materialize(sparse, out[:len(sparse)])
			}
			reportNsPerRow(b, len(sparse))
		})
	}
}

// BenchmarkSharedPred benchmarks the N-predicate shared-scan kernel against
// N private scans of the same windows: the decode-once/compare-many claim of
// the shared-scan cost model (exec.Costs.SharedPredCyclesPerByte), measured
// on real code. ns/row is per physical row streamed, so the shared/private
// ratio is the cohort's compute saving at n members.
func BenchmarkSharedPred(b *testing.B) {
	const nPreds = 8
	for _, bc := range []uint{4, 12, 20, 32} {
		v, max := benchVector(bc)
		preds := make([]SharedRange, nPreds)
		for i := range preds {
			lo := max / uint32(nPreds) * uint32(i)
			preds[i] = SharedRange{Lo: lo, Hi: lo + max/10}
		}
		outs := make([][]uint32, nPreds)
		b.Run(fmt.Sprintf("bits=%d/n=%d", bc, nPreds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for m := range outs {
					outs[m] = outs[m][:0]
				}
				outs = v.ScanShared(preds, 0, benchRows, outs)
			}
			reportNsPerRow(b, benchRows)
		})
		b.Run(fmt.Sprintf("bits=%d/n=%d/private", bc, nPreds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for m, pr := range preds {
					outs[m] = v.ScanRange(pr.Lo, pr.Hi, 0, benchRows, outs[m][:0])
				}
			}
			reportNsPerRow(b, benchRows)
		})
	}
}

// sinkInt keeps counting benchmarks from being optimized away.
var sinkInt int

// minPairSeconds times fa and fb alternately and returns each one's fastest
// pass. Interleaving keeps clock-frequency drift from biasing one side, and
// each pass is timed on its thread's CPU clock, so time the thread spends
// descheduled behind other processes (a sibling test package, on a shared CI
// machine) counts on neither side.
func minPairSeconds(reps int, fa, fb func()) (a, b float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for r := 0; r < reps; r++ {
		ta := cputime.Thread()
		fa()
		da := cputime.Thread() - ta
		tb := cputime.Thread()
		fb()
		db := cputime.Thread() - tb
		if r == 0 || da < a {
			a = da
		}
		if r == 0 || db < b {
			b = db
		}
	}
	return a, b
}

// TestScanPositionsBatchedSpeedup asserts the tentpole's acceptance bar: the
// batched range kernel is at least 2x the scalar reference's row throughput
// at bitcases <= 16. Timing-based, so it is skipped in -short runs (the
// -race CI job); the full suite and the bench job exercise it.
func TestScanPositionsBatchedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive: skipped in -short runs")
	}
	for _, bc := range []uint{4, 8, 12, 16} {
		v, max := benchVector(bc)
		lo, hi := benchWindow(max)
		var out []uint32
		scalar, batched := minPairSeconds(6, func() {
			out = v.scanRangeScalar(lo, hi, 0, benchRows, out[:0])
		}, func() {
			out = v.ScanRange(lo, hi, 0, benchRows, out[:0])
		})
		speedup := scalar / batched
		t.Logf("bitcase %2d: scalar %.2f ns/row, batched %.2f ns/row, speedup %.2fx",
			bc, scalar*1e9/benchRows, batched*1e9/benchRows, speedup)
		if speedup < 2 {
			t.Errorf("bitcase %d: batched ScanRange speedup %.2fx < 2x", bc, speedup)
		}
	}
}

// TestSharedScanDecodeOnceSpeedup asserts the measured decode-once saving:
// one shared 8-predicate pass beats 8 private passes, because the window
// load, the even/odd split, and the memory traffic over the indexvector are
// paid once instead of 8 times. The floor here is deliberately conservative
// (1.15x) so the test stays green on noisy shared runners; the actual ratio
// (typically 1.3-1.8x on this kernel) is tracked by BenchmarkSharedPred and
// the CI perf-regression gate.
func TestSharedScanDecodeOnceSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive: skipped in -short runs")
	}
	const nPreds = 8
	for _, bc := range []uint{4, 12} {
		v, max := benchVector(bc)
		preds := make([]SharedRange, nPreds)
		for i := range preds {
			lo := max / uint32(nPreds) * uint32(i)
			preds[i] = SharedRange{Lo: lo, Hi: lo + max/10}
		}
		outs := make([][]uint32, nPreds)
		private, shared := minPairSeconds(6, func() {
			for m, pr := range preds {
				outs[m] = v.ScanRange(pr.Lo, pr.Hi, 0, benchRows, outs[m][:0])
			}
		}, func() {
			for m := range outs {
				outs[m] = outs[m][:0]
			}
			outs = v.ScanShared(preds, 0, benchRows, outs)
		})
		speedup := private / shared
		t.Logf("bitcase %2d, n=%d: private %.2f ns/row, shared %.2f ns/row, speedup %.2fx",
			bc, nPreds, private*1e9/benchRows, shared*1e9/benchRows, speedup)
		if speedup < 1.15 {
			t.Errorf("bitcase %d: shared %d-predicate pass speedup %.2fx < 1.15x", bc, nPreds, speedup)
		}
	}
}
