package harness

import (
	"testing"

	"numacs/internal/core"
)

// TestFig8Shape verifies the headline result on the fig8 report's
// peak-concurrency cells: with RR-placed columns and a uniform
// memory-intensive workload at high concurrency, NUMA-aware scheduling
// (Target/Bound) massively outperforms OS scheduling, with Bound at least
// matching Target (Figure 8).
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test")
	}
	cells := map[core.Strategy]Result{}
	for _, r := range filterMax(mustRun(t, "fig8").Results, QuickScale().Max) {
		cells[r.Spec.Strategy] = r
	}
	os, target, bound := cells[core.OSched], cells[core.Target], cells[core.Bound]

	t.Logf("OS:     qpm=%.0f memTP=%.1f GiB/s ipc=%.2f stolen=%d llcR%%=%.0f",
		os.QPM, os.MemTPTotal, os.IPC, os.Stolen, 100*os.LLCRemote/(os.LLCLocal+os.LLCRemote))
	t.Logf("Target: qpm=%.0f memTP=%.1f GiB/s ipc=%.2f stolen=%d",
		target.QPM, target.MemTPTotal, target.IPC, target.Stolen)
	t.Logf("Bound:  qpm=%.0f memTP=%.1f GiB/s ipc=%.2f stolen=%d",
		bound.QPM, bound.MemTPTotal, bound.IPC, bound.Stolen)

	if bound.QPM < 3*os.QPM {
		t.Errorf("Bound/OS = %.2fx, want >= 3x (paper: ~5x)", bound.QPM/os.QPM)
	}
	if bound.QPM < target.QPM*0.95 {
		t.Errorf("Bound (%.0f) should be >= Target (%.0f)", bound.QPM, target.QPM)
	}
	if bound.Stolen != 0 {
		t.Errorf("Bound stole %d tasks", bound.Stolen)
	}
	// OS traffic is mostly remote; Bound mostly local.
	if os.LLCRemote < os.LLCLocal {
		t.Errorf("OS should be mostly remote: local=%.0f remote=%.0f", os.LLCLocal, os.LLCRemote)
	}
	if bound.LLCRemote > bound.LLCLocal*0.1 {
		t.Errorf("Bound should be mostly local: local=%.0f remote=%.0f", bound.LLCLocal, bound.LLCRemote)
	}
	// Memory throughput drives the gap (Figure 1b / 8).
	if bound.MemTPTotal < 2.5*os.MemTPTotal {
		t.Errorf("Bound memTP (%.1f) should dwarf OS (%.1f)", bound.MemTPTotal, os.MemTPTotal)
	}
}
