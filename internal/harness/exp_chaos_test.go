package harness

import (
	"strings"
	"testing"

	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/core"
)

// TestChaosExperimentsRegistered pins the chaos registry: at least four
// chaos-* experiments are registered and resolvable by id. (Cheap — runs
// even under -short.)
func TestChaosExperimentsRegistered(t *testing.T) {
	var ids []string
	for _, id := range IDs() {
		if strings.HasPrefix(id, "chaos-") {
			ids = append(ids, id)
		}
	}
	if len(ids) < 4 {
		t.Fatalf("only %d chaos-* experiments registered (%v), want >= 4", len(ids), ids)
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Fatalf("chaos experiment %q not resolvable by id", id)
		}
	}
}

// TestChaosDisabledBitIdentical pins the zero-cost-when-disabled guarantee:
// an engine with the chaos layer enabled on an EMPTY fault schedule must
// equal the plain engine on every counter and the full latency distribution,
// bit for bit. (The injection hooks are a capacity re-read the allocator
// does anyway and one nil check in the scheduler; an inert injector must not
// perturb a single allocation, dispatch, or RNG draw.)
func TestChaosDisabledBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	run := func(withChaos bool) *core.Engine {
		spec := bypassBase
		spec.Clients = 64
		if withChaos {
			spec.Setup = func(e *core.Engine, t *colstore.Table) { e.EnableChaos(chaos.Config{}, t) }
		}
		return runBypass(spec)
	}
	plain := run(false)
	inert := run(true)

	if got := len(inert.Chaos.Applied); got != 0 {
		t.Fatalf("inert injector applied %d events", got)
	}
	assertSameRun(t, plain.Counters, inert.Counters)
}

// assertProgress is the livelock/deadlock watchdog: every reporting window
// of every run must complete at least one statement.
func assertProgress(t *testing.T, r *engineRun) {
	t.Helper()
	for w, n := range r.Done {
		if n == 0 {
			t.Errorf("%s: window %d completed no statements — engine stopped making progress", r.Spec.Label, w+1)
		}
	}
}

// checkChaosThermal asserts the MC-throttling invariants at one scale.
func checkChaosThermal(t *testing.T, s Scale) {
	t.Helper()
	control, faulted := chaosThermal.pair(s)
	assertProgress(t, control)
	assertProgress(t, faulted)

	if n := len(faulted.E.Chaos.Applied); n != 2 {
		t.Fatalf("injected %d faults, want throttle+restore", n)
	}
	if r := faulted.faultTP() / control.faultTP(); r < 0.2 {
		t.Errorf("throttled throughput ratio %.2f < 0.2 — collapse, not degradation", r)
	} else if r > 0.7 {
		t.Errorf("throttled throughput ratio %.2f > 0.7 — a 30%% MC throttle did not bite", r)
	}
	if r := faulted.recoveryTP() / control.recoveryTP(); r < 0.85 {
		t.Errorf("recovery throughput ratio %.2f < 0.85 after the throttle lifted", r)
	}
	if faulted.Latency.P99 > 10*control.Latency.P99 {
		t.Errorf("faulted p99 %.2fms > 10x control %.2fms", faulted.Latency.P99*1e3, control.Latency.P99*1e3)
	}
}

// checkChaosAntagonist asserts the heat-thrashing invariants at one scale.
func checkChaosAntagonist(t *testing.T, s Scale) {
	t.Helper()
	control, faulted := chaosAntagonist.pair(s)
	assertProgress(t, control)
	assertProgress(t, faulted)

	cv, fv := control.Tenants.Stats()[0], faulted.Tenants.Stats()[0] // the victim tenant
	if fv.Completed < 3*fv.Issued/4 {
		t.Errorf("victim completed %d of %d issued under thrashing — admission fairness lost",
			fv.Completed, fv.Issued)
	}
	if float64(fv.Completed) < 0.75*float64(cv.Completed) {
		t.Errorf("victim goodput %d < 0.75x its control goodput %d", fv.Completed, cv.Completed)
	}
	if fv.Lat.P99() > 3*cv.Lat.P99() {
		t.Errorf("victim p99 %.2fms > 3x control %.2fms", fv.Lat.P99()*1e3, cv.Lat.P99()*1e3)
	}
	// The thrash must actually engage the placer's replication lever more
	// than steady heat does, and the resulting churn must stay bounded (the
	// placer acts at most a couple of times per balancing period).
	fRepl, cRepl := countActions(faulted.Placer.Actions, "replicate"), countActions(control.Placer.Actions, "replicate")
	if fRepl <= cRepl {
		t.Errorf("thrashing run replicated %d times vs control %d — the antagonist did not engage the placer",
			fRepl, cRepl)
	}
	if n := len(faulted.Placer.Actions); n > 120 {
		t.Errorf("placer took %d actions under thrashing — churn unbounded", n)
	}
}

// checkChaosWriteStorm asserts the write-storm invariants at one scale.
func checkChaosWriteStorm(t *testing.T, s Scale) {
	t.Helper()
	control, faulted := chaosWriteStorm.pair(s)
	assertProgress(t, control)
	assertProgress(t, faulted)

	if n := control.E.MergesCompleted; n != 0 {
		t.Errorf("control run merged %d times — the storm is the only write source", n)
	}
	if faulted.E.MergesCompleted < 1 {
		t.Error("write storm never triggered a background merge — the race under test did not happen")
	}
	if faulted.E.Shared.Stats().Merged == 0 {
		t.Error("no statements shared a pass during the storm run — cohorts disengaged")
	}
	if r := faulted.faultTP() / control.faultTP(); r < 0.3 {
		t.Errorf("storm-window throughput ratio %.2f < 0.3 — degradation not graceful", r)
	} else if r > 0.9 {
		t.Errorf("storm-window throughput ratio %.2f > 0.9 — the storm did not bite", r)
	}
	if r := faulted.recoveryTP() / control.recoveryTP(); r < 0.7 {
		t.Errorf("post-storm recovery ratio %.2f < 0.7", r)
	}
	// Statements in flight when the merge rebuild kicks in absorb its whole
	// pause, so the storm's tail inflation is the largest of the suite
	// (measured ~1.8x at 25 us, ~5x at 5 us).
	if faulted.Latency.P99 > 8*control.Latency.P99 {
		t.Errorf("faulted p99 %.2fms > 8x control %.2fms", faulted.Latency.P99*1e3, control.Latency.P99*1e3)
	}
}

// checkChaosBurst asserts the join-window-burst invariants at one scale.
func checkChaosBurst(t *testing.T, s Scale) {
	t.Helper()
	control, faulted := chaosBurst.pair(s)
	assertProgress(t, control)
	assertProgress(t, faulted)

	cb, fb := control.Tenants.Stats()[1], faulted.Tenants.Stats()[1] // the burst tenant
	if fb.Issued < 2*cb.Issued {
		t.Fatalf("burst tenant issued %d vs %d without bursts — the spikes never fired", fb.Issued, cb.Issued)
	}
	if cohorted(faulted.E.Shared.Stats()) == 0 {
		t.Error("no statements merged or attached under bursts — sharing disengaged")
	}
	if fs := faulted.Tenants.Stats()[0]; fs.Completed < 9*fs.Issued/10 {
		t.Errorf("steady tenant completed %d of %d issued under bursts", fs.Completed, fs.Issued)
	}
	if fb.Completed < 7*fb.Issued/10 {
		t.Errorf("burst tenant completed %d of %d issued — spikes were shed, not absorbed", fb.Completed, fb.Issued)
	}
	if r := faulted.faultTP() / control.faultTP(); r < 0.8 {
		t.Errorf("burst-window throughput ratio %.2f < 0.8 — spikes should be absorbed by sharing", r)
	}
	if faulted.Latency.P99 > 3*control.Latency.P99 {
		t.Errorf("faulted p99 %.2fms > 3x control %.2fms", faulted.Latency.P99*1e3, control.Latency.P99*1e3)
	}
}

// Quick-scale (25 us step) assertions.

func TestChaosThermalQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	checkChaosThermal(t, QuickScale())
}

func TestChaosAntagonistQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	checkChaosAntagonist(t, QuickScale())
}

func TestChaosWriteStormQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	checkChaosWriteStorm(t, QuickScale())
}

func TestChaosBurstQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	checkChaosBurst(t, QuickScale())
}

// Full-scale (5 us step) assertions: the graceful-degradation envelope must
// hold when dispatch quantization is 5x finer, or the invariants would be a
// step-size artifact.

func TestChaosThermalFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs at full scale")
	}
	checkChaosThermal(t, FullScale())
}

func TestChaosAntagonistFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs at full scale")
	}
	checkChaosAntagonist(t, FullScale())
}

func TestChaosWriteStormFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs at full scale")
	}
	checkChaosWriteStorm(t, FullScale())
}

func TestChaosBurstFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs at full scale")
	}
	checkChaosBurst(t, FullScale())
}
