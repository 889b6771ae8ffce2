package metrics

import "testing"

// TestSnapshotDelta: snapshots are value copies (later counter mutation does
// not leak in) and Sub of an earlier snapshot returns the per-field growth.
func TestSnapshotDelta(t *testing.T) {
	c := New(2)
	c.AddMemoryTraffic(0, 0, 100, 10, 20) // local on socket 0
	c.AddMemoryTraffic(0, 1, 64, 8, 16)   // remote: socket 0 reads socket 1
	c.AddCompute(1, 1000, 500)
	c.TasksExecuted = 5
	c.AddLatency(0.001)
	c.WorkerBusySeconds = 0.25

	first := c.Snapshot()
	if first.MCBytes[0] != 100 || first.MCBytes[1] != 64 {
		t.Fatalf("snapshot MCBytes: %v", first.MCBytes)
	}
	if first.LocalBytes[0] != 100 || first.RemoteBytes[0] != 64 {
		t.Fatalf("snapshot locality: local %v remote %v", first.LocalBytes, first.RemoteBytes)
	}

	c.AddMemoryTraffic(1, 1, 36, 0, 0)
	c.TasksStolen = 2
	c.AddLatency(0.002)
	c.AddLatency(0.003)

	// The earlier snapshot must not have moved with the counters.
	if first.MCBytes[1] != 64 || first.QueriesDone != 1 {
		t.Fatalf("snapshot aliased the live counters: %+v", first)
	}

	d := c.Snapshot().Sub(first)
	if d.MCBytes[0] != 0 || d.MCBytes[1] != 36 {
		t.Fatalf("delta MCBytes: %v", d.MCBytes)
	}
	if d.QueriesDone != 2 || d.TasksStolen != 2 || d.TasksExecuted != 0 {
		t.Fatalf("delta scheduler counters: %+v", d)
	}
	if d.LinkDataBytes != 0 || d.WorkerBusySeconds != 0 {
		t.Fatalf("delta scalars: %+v", d)
	}
	if got := d.TotalMCBytes(); got != 36 {
		t.Fatalf("delta TotalMCBytes = %v, want 36", got)
	}

	// A zero-value prev yields the running totals (first-window case).
	full := c.Snapshot().Sub(Snapshot{})
	if full.MCBytes[0] != 100 || full.MCBytes[1] != 100 || full.QueriesDone != 3 {
		t.Fatalf("zero-prev delta: %+v", full)
	}
}

// TestSnapshotMCGiBs: byte deltas scale to GiB/s by the window, and a
// non-positive window yields zeros rather than Inf/NaN.
func TestSnapshotMCGiBs(t *testing.T) {
	s := Snapshot{MCBytes: []float64{1 << 30, 2 << 30}}
	g := s.MCGiBs(0.5)
	if g[0] != 2 || g[1] != 4 {
		t.Fatalf("MCGiBs over 0.5s: %v", g)
	}
	z := s.MCGiBs(0)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero-window MCGiBs must be zeros: %v", z)
	}
}

// TestHistogramMerge: merged samples contribute to percentiles, the source is
// unchanged, and nil/empty sources are no-ops.
func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for _, v := range []float64{1, 2, 3} {
		a.Record(v)
	}
	for _, v := range []float64{10, 20} {
		b.Record(v)
	}
	a.Percentile(50) // fold a's samples; Merge must add to the folded values
	a.Merge(&b)
	if a.N() != 5 || b.N() != 2 {
		t.Fatalf("after merge: a.N=%d b.N=%d, want 5 and 2", a.N(), b.N())
	}
	if got := a.Max(); got != 20 {
		t.Fatalf("merged max = %v, want 20", got)
	}
	if got := a.Percentile(50); got != 3 {
		t.Fatalf("merged median = %v, want 3", got)
	}
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.N() != 5 {
		t.Fatalf("nil/empty merge changed N: %d", a.N())
	}
}

// TestHistogramPercentileEdges pins the boundary semantics: one sample, p<=0,
// p>=100, and the empty histogram.
func TestHistogramPercentileEdges(t *testing.T) {
	var empty Histogram
	if empty.Percentile(50) != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}

	var one Histogram
	one.Record(7)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := one.Percentile(p); got != 7 {
			t.Fatalf("single sample p%v = %v, want 7", p, got)
		}
	}

	var h Histogram
	for _, v := range []float64{5, 1, 3} { // unsorted on purpose
		h.Record(v)
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want min 1", got)
	}
	if got := h.Percentile(-5); got != 1 {
		t.Fatalf("p(-5) = %v, want min 1", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want max 5", got)
	}
	if got := h.Percentile(150); got != 5 {
		t.Fatalf("p150 = %v, want max 5", got)
	}
	if got := h.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
}

// TestHistogramResetThenRecord: Reset drops the samples but the histogram
// stays usable, with correct percentiles over the new samples.
func TestHistogramResetThenRecord(t *testing.T) {
	var h Histogram
	for _, v := range []float64{100, 200, 300} {
		h.Record(v)
	}
	h.Percentile(99) // fold before reset
	h.Reset()
	if h.N() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("after reset: N=%d p50=%v", h.N(), h.Percentile(50))
	}
	h.Record(2)
	h.Record(1)
	if h.N() != 2 || h.Percentile(0) != 1 || h.Percentile(100) != 2 {
		t.Fatalf("post-reset records: N=%d min=%v max=%v", h.N(), h.Percentile(0), h.Percentile(100))
	}
	if got := h.Mean(); got != 1.5 {
		t.Fatalf("post-reset mean = %v, want 1.5", got)
	}
}
