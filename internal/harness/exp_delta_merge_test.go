package harness

// Tests for the delta-merge experiment: the acceptance criteria of the
// write-path lifecycle — monotonic scan degradation while the delta grows,
// post-merge recovery to the read-only baseline, and write-hot replica
// reclaim — validated at BOTH simulator scales (quick's coarse 25µs step and
// full's 5µs step), per the repo's rule that perf claims must survive the
// fine-step simulation.

import "testing"

func TestDeltaMergeLifecycleQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window mixed read/write simulation")
	}
	checkDeltaMergeLifecycle(t, QuickScale())
}

func TestDeltaMergeLifecycleFull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window mixed read/write simulation at the fine step")
	}
	checkDeltaMergeLifecycle(t, FullScale())
}

func checkDeltaMergeLifecycle(t *testing.T, s Scale) {
	t.Helper()
	base, _ := deltaMergeRun(s, false)
	mixed, _ := deltaMergeRun(s, true)
	baseCols, cols := base.Table.Parts[0].Columns, mixed.Table.Parts[0].Columns
	scanCol, replCol := cols[deltaMergeScanCol], cols[deltaMergeReplCol]
	writeStart, writeStop := mixed.Spec.Writers.Start, mixed.Spec.Writers.Stop
	var mergeTimes []float64
	for _, a := range mixed.Placer.Actions {
		if a.Kind == "merge" && a.Column == scanCol.Name {
			mergeTimes = append(mergeTimes, a.Time)
		}
	}

	// Control: the read-only run never merges, keeps its replicas, and the
	// two runs are bit-identical until the writers start (the write path is
	// inert without writes).
	if n := base.E.MergesCompleted; n != 0 {
		t.Fatalf("read-only baseline completed %d merges", n)
	}
	if !baseCols[deltaMergeReplCol].Replicated() {
		t.Fatal("read-only baseline lost its replicas")
	}
	for w := 0; w < 4; w++ {
		if base.TP[w] != mixed.TP[w] {
			t.Fatalf("pre-write window %d diverged: baseline %.0f vs mixed %.0f (write path leaked into read-only execution)",
				w+1, base.TP[w], mixed.TP[w])
		}
	}

	// The size trigger must have fired during the write phase.
	if len(mergeTimes) == 0 {
		t.Fatalf("no merge fired for the written column; actions: %+v", mixed.Placer.Actions)
	}
	firstMerge := mergeTimes[0]
	if firstMerge < writeStart || firstMerge > writeStop {
		t.Fatalf("first merge at %.1fms outside the write phase [%.1f, %.1f]ms",
			firstMerge*1e3, writeStart*1e3, writeStop*1e3)
	}
	if mixed.E.MergesCompleted == 0 {
		t.Fatal("merges fired but none completed")
	}

	// (a) Scan throughput degrades monotonically with delta size before the
	// merge: over the windows fully inside [writeStart, firstMerge), TP is
	// non-increasing (3% jitter tolerance) and the degradation is
	// substantial.
	var pre []float64
	for w := 4; float64(w+1)*mixed.Window <= firstMerge; w++ {
		pre = append(pre, mixed.TP[w])
	}
	if len(pre) < 2 {
		t.Fatalf("merge fired too early: only %d full degradation windows before %.1fms", len(pre), firstMerge*1e3)
	}
	for i := 1; i < len(pre); i++ {
		if pre[i] > pre[i-1]*1.03 {
			t.Errorf("degradation not monotonic: window TP rose %.0f -> %.0f while the delta grew (series %v)",
				pre[i-1], pre[i], pre)
		}
	}
	minPre := pre[0]
	for _, v := range pre {
		if v < minPre {
			minPre = v
		}
	}
	if preWrite := meanf(mixed.TP[1:4]); minPre > 0.85*preWrite {
		t.Errorf("degradation not substantial: min pre-merge TP %.0f vs pre-write %.0f (want < 85%%)",
			minPre, preWrite)
	}

	// (b) Post-merge throughput recovers to within 10% of the read-only
	// baseline (compared against the baseline run's same tail windows).
	if rec, ref := recoveredTP(mixed.Result), recoveredTP(base.Result); rec < 0.9*ref || rec > 1.1*ref {
		t.Errorf("recovery outside 10%%: recovered %.0f vs read-only baseline %.0f (%.3fx)",
			rec, ref, rec/ref)
	}
	if final := scanCol.DeltaBytes() + replCol.DeltaBytes(); final > int64(scanCol.Rows/50) {
		t.Errorf("delta not folded at the end: %d bytes linger", final)
	}

	// (c) The write-hot replicas are reclaimed, during the write phase.
	if replCol.Replicated() {
		t.Error("write-hot column still replicated at the end")
	}
	drops := 0
	for _, a := range mixed.Placer.Actions {
		if a.Kind == "drop-replica" {
			drops++
			if a.Time < writeStart || a.Time > writeStop {
				t.Errorf("drop-replica at %.1fms outside the write phase", a.Time*1e3)
			}
		}
		if a.Kind == "replicate" {
			t.Errorf("replicate action in a run with writes: %+v", a)
		}
	}
	if drops < 2 {
		t.Errorf("expected both extra replicas reclaimed, got %d drop-replica actions", drops)
	}

	// The write mix is update-heavy by construction.
	if w := mixed.Writers; w.Inserts == 0 || w.Updates <= w.Inserts {
		t.Errorf("write mix off: %d inserts, %d updates", w.Inserts, w.Updates)
	}
	// Inserts merged into the main grow the row count.
	if scanCol.Rows <= s.Rows {
		t.Errorf("merged inserts did not grow the main: %d rows (started at %d)", scanCol.Rows, s.Rows)
	}
}
