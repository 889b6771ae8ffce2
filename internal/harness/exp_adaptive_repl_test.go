package harness

// Acceptance tests for the adaptive-repl experiment: the replicating placer
// must beat the move/partition-only placer by >=1.3x on the read-hot
// workload, stay within its replica budget, and actually use the
// replication lever (the reclaim-on-decay half of the lifecycle is covered
// by TestStaleReplicasReclaimed in internal/adaptive).

import "testing"

func TestAdaptiveReplBeatsMovePartitionOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window experiment")
	}
	s := QuickScale()
	base := runEngine(adaptiveReplSpec(s, false))
	repl := runEngine(adaptiveReplSpec(s, true))

	if r, b := finalTP(repl.Result), finalTP(base.Result); r < 1.3*b {
		t.Fatalf("replicating placer %.0f q/min < 1.3x move/partition-only %.0f q/min", r, b)
	}
	if n := countActions(repl.Placer.Actions, "replicate"); n == 0 {
		t.Fatal("replicating run recorded no replicate actions")
	}
	if n := countActions(base.Placer.Actions, "replicate"); n != 0 {
		t.Fatalf("move/partition-only run replicated %d times", n)
	}
	peak, budget := repl.Placer.PeakReplicaBytes, repl.Spec.Placer.ReplicaBudgetBytes
	if peak <= 0 {
		t.Fatal("replicating run accounted no replica memory")
	}
	if peak > budget {
		t.Fatalf("peak replica bytes %d exceed budget %d", peak, budget)
	}
	// Replication serves the hot column's dictionary locally on every
	// socket, so the converged QPI traffic must come down vs the
	// interleaved-dictionary baseline.
	lastW := adaptiveReplWindows - 1
	if r, b := qpiGiB(repl.Result)[lastW], qpiGiB(base.Result)[lastW]; r >= b {
		t.Fatalf("replication did not reduce QPI traffic: %.3f GiB vs %.3f GiB", r, b)
	}
}
