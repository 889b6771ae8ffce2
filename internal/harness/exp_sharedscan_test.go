package harness

import (
	"testing"

	"numacs/internal/core"
	"numacs/internal/sharedscan"
)

// TestSharedScanBypassBitIdentical pins the bypass guarantee: an uncontended
// scan — no other statement concurrently forming, running, or attachable on
// its column — launches immediately as a cohort of one whose pass plans the
// identical tasks, draws the identical RNG stream, and starts the identical
// flows as the private ScanOp path. A sharing-enabled engine driving one
// closed-loop client must therefore equal the sharing-disabled engine on
// every counter and on the full latency distribution, bit for bit.
func TestSharedScanBypassBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	run := func(sharing bool) *core.Engine {
		spec := bypassBase
		spec.Clients = 1
		if sharing {
			spec.Shared = &sharedscan.Config{}
		}
		return runBypass(spec)
	}
	direct := run(false)
	shared := run(true)

	// Every statement must have taken the solo-launch bypass.
	st := shared.Shared.Stats()
	if st.Statements == 0 || st.Solo != st.Passes || st.Merged+st.Attached+st.Shed != 0 {
		t.Fatalf("uncontended run did not stay on the bypass path: %+v", st)
	}

	assertSameRun(t, direct.Counters, shared.Counters)
}

// checkSharedScanCriteria asserts the shared-scan acceptance criteria at one
// simulator scale: in the MC-bound regime, cohort sharing must deliver >=2x
// statement throughput AND <=0.5x physical MC bytes per statement vs the
// sharing-disabled control — the win has to be real memory traffic, not a
// scheduling or step-quantization artifact. minSpeedup parameterizes the
// throughput bar per client count: with the measured marginal predicate cost
// (TestSharedPredCostDerivation), a 32-member pass on the quick scale's
// small column approaches the serving socket's compute asymptote — a full
// private pass streams in ~12 us there, so the unshared control already sits
// at the MC-saturation edge — and the honest requirement at that point is
// no-regression plus the traffic collapse, not 2x. The full scale, whose
// column holds the control firmly MC-bound, asserts >=2x across the sweep
// and is the authoritative fine-step check.
func checkSharedScanCriteria(t *testing.T, s Scale, minSpeedup map[int]float64) {
	t.Helper()
	for _, clients := range []int{16, 32} {
		off := runEngine(sharedScanSpec(s, false, clients))
		on := runEngine(sharedScanSpec(s, true, clients))
		if off.QueriesDone == 0 || on.QueriesDone == 0 {
			t.Fatalf("%d clients: no statements completed (off %d, on %d)",
				clients, off.QueriesDone, on.QueriesDone)
		}
		if min := minSpeedup[clients]; on.QPM < min*off.QPM {
			t.Errorf("%d clients: shared throughput %.0f q/min < %.2fx unshared %.0f",
				clients, on.QPM, min, off.QPM)
		}
		if on, off := bytesPerQuery(on), bytesPerQuery(off); on > 0.5*off {
			t.Errorf("%d clients: shared MC bytes/query %.0f > 0.5x unshared %.0f", clients, on, off)
		}
		// The mechanism must actually engage: most statements share a pass.
		if mean := on.E.Shared.MeanCohort(); mean < 2 {
			t.Errorf("%d clients: mean cohort %.1f < 2 — passes are not shared", clients, mean)
		}
		if st := on.E.Shared.Stats(); cohorted(st) == 0 {
			t.Errorf("%d clients: no statements merged or attached (%+v)", clients, st)
		}
	}
}

// TestSharedScanSpeedupQuick asserts the acceptance criteria at the quick
// scale's 25 us simulator step.
func TestSharedScanSpeedupQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-scan simulation sweep")
	}
	checkSharedScanCriteria(t, QuickScale(), map[int]float64{16: 2, 32: 1.1})
}

// TestSharedScanSpeedupFull asserts the acceptance criteria at the full
// scale's 5 us simulator step (the step-size robustness check: quick-scale
// dispatch quantization must not be what produces the win).
func TestSharedScanSpeedupFull(t *testing.T) {
	if testing.Short() {
		t.Skip("shared-scan simulation sweep at full scale")
	}
	checkSharedScanCriteria(t, FullScale(), map[int]float64{16: 2, 32: 2})
}
