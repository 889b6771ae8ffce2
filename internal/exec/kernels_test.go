package exec

import (
	"math/rand"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/placement"
	"numacs/internal/topology"
)

// buildKernelColumn makes a real dictionary-encoded column with a skewed
// pseudo-random value distribution (repeats plus a long tail) so predicate
// windows hit a mix of dense and empty dictionary regions.
func buildKernelColumn(t *testing.T, rows int, seed int64) *colstore.Column {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, rows)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = int64(rng.Intn(50)) // hot values
		} else {
			vals[i] = rng.Int63n(20_000)
		}
	}
	return colstore.Build("K", vals, false)
}

// checkSpanCoverage asserts the plan is a sorted, gap-free, overlap-free
// cover of [0, rows).
func checkSpanCoverage(t *testing.T, spans []KernelSpan, rows int) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("empty plan")
	}
	if spans[0].From != 0 || spans[len(spans)-1].To != rows {
		t.Fatalf("plan does not span [0,%d): %+v", rows, spans)
	}
	for i, sp := range spans {
		if sp.From >= sp.To {
			t.Fatalf("span %d empty or inverted: %+v", i, sp)
		}
		if i > 0 && sp.From != spans[i-1].To {
			t.Fatalf("gap/overlap between span %d and %d: %+v", i-1, i, spans)
		}
	}
}

// checkSpanParts asserts that the spans' Part indexes are non-decreasing and
// that every span lies inside the scheduling partition it names.
func checkSpanParts(t *testing.T, spans []KernelSpan, parts []RowRange) {
	t.Helper()
	for i, sp := range spans {
		if i > 0 && sp.Part < spans[i-1].Part {
			t.Fatalf("span %d: part %d after part %d", i, sp.Part, spans[i-1].Part)
		}
		if sp.Part < 0 || sp.Part >= len(parts) {
			t.Fatalf("span %d: part %d of %d", i, sp.Part, len(parts))
		}
		if pr := parts[sp.Part]; sp.From < pr.From || sp.To > pr.To || sp.Socket != pr.Socket {
			t.Fatalf("span %d %+v outside its partition %+v", i, sp, pr)
		}
	}
}

// TestPlanSpansCoverRowSpace: for IVP-partitioned, replicated, and unplaced
// columns, across concurrency hints, the plan must cover the row space
// exactly once in ascending order, partition by partition.
func TestPlanSpansCoverRowSpace(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	p := placement.New(m)

	ivp := colstore.NewSynthetic("IVP", 40_000, 1<<12, false)
	p.PlaceIVP(ivp, []int{0, 1, 2, 3})
	rep := colstore.NewSynthetic("REP", 40_000, 1<<12, false)
	p.PlaceReplicated(rep, []int{0, 2})
	unplaced := colstore.NewSynthetic("UNP", 1_000, 1<<8, false)

	for _, col := range []*colstore.Column{ivp, rep, unplaced} {
		for _, hint := range []int{0, 1, 3, 16} {
			spans := PlanSpans(nil, col, nil, hint)
			checkSpanCoverage(t, spans, col.Rows)
			checkSpanParts(t, spans, Partitions(col))
			if hint > 0 && len(spans) < hint {
				t.Fatalf("%s hint=%d: only %d spans", col.Name, hint, len(spans))
			}
		}
	}

	// A loaded memory controller reshapes replica slices but must not break
	// coverage.
	load := []float64{9, 0, 0, 0}
	spans := PlanSpans(nil, rep, load, 8)
	checkSpanCoverage(t, spans, rep.Rows)
	checkSpanParts(t, spans, PartitionsWeighted(nil, rep, load))

	// Span sockets inherit the partition sockets of the underlying plan.
	for _, sp := range PlanSpans(nil, rep, nil, 4) {
		if sp.Socket != 0 && sp.Socket != 2 {
			t.Fatalf("replica span on socket %d, want 0 or 2", sp.Socket)
		}
	}
}

// TestScanKernelMatchesWholeColumnScan: running the planned span sequence
// through ScanKernel must be bit-identical to one whole-column ScanPositions,
// for windows that clip the dictionary, miss it entirely, and cover it.
func TestScanKernelMatchesWholeColumnScan(t *testing.T) {
	col := buildKernelColumn(t, 30_000, 17)
	spans := PlanSpans(nil, col, nil, 7)
	checkSpanCoverage(t, spans, col.Rows)
	for _, pr := range [][2]int64{{0, 49}, {1000, 5000}, {-100, -1}, {30_000, 40_000}, {-1 << 40, 1 << 40}, {7, 7}} {
		var want []uint32
		if lo, hi, ok := col.EncodePredicate(pr[0], pr[1]); ok {
			want = col.ScanPositions(lo, hi, 0, col.Rows, nil)
		}
		got := ScanKernel(col, pr[0], pr[1], spans, nil)
		if len(got) != len(want) {
			t.Fatalf("[%d,%d]: %d matches, want %d", pr[0], pr[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d]: position %d: got %d, want %d", pr[0], pr[1], i, got[i], want[i])
			}
		}
	}
}

// TestSharedScanKernelMatchesPrivateKernels: each cohort member's output must
// be bit-identical to a private ScanKernel over the same spans, including a
// member whose window misses the dictionary.
func TestSharedScanKernelMatchesPrivateKernels(t *testing.T) {
	col := buildKernelColumn(t, 20_000, 23)
	spans := PlanSpans(nil, col, nil, 5)
	preds := [][2]int64{{0, 30}, {500, 9000}, {-50, -10}, {10, 15_000}, {19_999, 19_999}}
	outs := SharedScanKernel(col, preds, spans, make([][]uint32, len(preds)))
	if len(outs) != len(preds) {
		t.Fatalf("%d output lists, want %d", len(outs), len(preds))
	}
	for m, pr := range preds {
		want := ScanKernel(col, pr[0], pr[1], spans, nil)
		if len(outs[m]) != len(want) {
			t.Fatalf("member %d [%d,%d]: %d matches, want %d", m, pr[0], pr[1], len(outs[m]), len(want))
		}
		for i := range want {
			if outs[m][i] != want[i] {
				t.Fatalf("member %d: position %d differs", m, i)
			}
		}
	}
}

// TestMaterializeKernelMatchesPointLookups: the batched gather must agree
// with per-row Value at every qualifying position.
func TestMaterializeKernelMatchesPointLookups(t *testing.T) {
	col := buildKernelColumn(t, 10_000, 31)
	spans := PlanSpans(nil, col, nil, 3)
	positions := ScanKernel(col, 0, 49, spans, nil)
	if len(positions) == 0 {
		t.Fatal("fixture predicate matched nothing")
	}
	vals := MaterializeKernel(col, positions)
	if len(vals) != len(positions) {
		t.Fatalf("%d values for %d positions", len(vals), len(positions))
	}
	for i, pos := range positions {
		if want := col.Value(int(pos)); vals[i] != want {
			t.Fatalf("position %d: got %d, want %d", pos, vals[i], want)
		}
		if vals[i] < 0 || vals[i] > 49 {
			t.Fatalf("position %d: value %d outside predicate [0,49]", pos, vals[i])
		}
	}
	if got := MaterializeKernel(col, nil); len(got) != 0 {
		t.Fatalf("empty position list produced %d values", len(got))
	}
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
		outs = col.IVec.ScanShared(ranges, sp.From, sp.To, outs)
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
