package harness

import (
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// checkAdmissionCriteria asserts the admission experiment's acceptance
// criteria at one simulator scale: under >=2x-capacity offered load the
// admission-on run keeps p99 statement latency bounded (>=2x better than
// admission-off and within a small multiple of the OLAP deadline) and no
// tenant's goodput falls below half its fair share (its weight share of the
// completed throughput, or its own demand when it offers less).
func checkAdmissionCriteria(t *testing.T, s Scale) {
	t.Helper()
	capacity := float64(Run(admissionCapacitySpec(s)).QueriesDone) / s.Measure
	if capacity <= 0 {
		t.Fatal("capacity probe returned nothing")
	}
	off := runEngine(admissionSpec(s, false, capacity))
	on := runEngine(admissionSpec(s, true, capacity))

	// Overload regime: the open loop must offer at least 2x the probed
	// capacity (both runs share the rate config).
	for _, r := range []*engineRun{on, off} {
		if _, offered, _ := admissionTenants(r); offered < 2*capacity {
			t.Fatalf("%s: offered %.0f q/s < 2x capacity %.0f", r.Spec.Label, offered, capacity)
		}
	}

	// Bounded tail: admission-on p99 at least 2x better than queues-only,
	// and anchored to the deadline contract rather than the horizon.
	if off.Latency.P99 < 2*on.Latency.P99 {
		t.Fatalf("p99 off %.2fms < 2x p99 on %.2fms — admission did not bound the tail",
			off.Latency.P99*1e3, on.Latency.P99*1e3)
	}
	if deadline := on.Spec.Admission.OLAPDeadline; on.Latency.P99 > 2.5*deadline {
		t.Fatalf("admission-on p99 %.2fms exceeds 2.5x the %.2fms OLAP deadline",
			on.Latency.P99*1e3, deadline*1e3)
	}

	// Weighted fairness: every scan tenant gets at least half its fair
	// share. A tenant offering less than its share is entitled to its
	// demand, not the share.
	onTenants, _, onCompleted := admissionTenants(on)
	totalW := 0.0
	for _, at := range onTenants {
		totalW += at.Weight
	}
	for _, at := range onTenants {
		fair := at.Weight / totalW * onCompleted
		if at.OfferedQPS < fair {
			fair = at.OfferedQPS
		}
		if at.GoodputQPS < 0.5*fair {
			t.Errorf("tenant %s goodput %.0f q/s below half its fair share %.0f",
				at.Name, at.GoodputQPS, fair)
		}
	}

	// The mechanisms must actually engage: the greedy tenant's surplus is
	// shed, the control loop samples, and the writer's Interactive batches
	// flow in both modes.
	if on.E.Admit.TotalShed == 0 {
		t.Error("no statements shed despite 2x overload")
	}
	if len(on.E.Admit.Trace) == 0 {
		t.Error("elastic controller recorded no control samples")
	}
	if on.Writers.Inserts+on.Writers.Updates == 0 || off.Writers.Inserts+off.Writers.Updates == 0 {
		t.Error("writer tenant applied no rows")
	}
	// The off run exhibits the failure mode admission prevents: an
	// unbounded statement backlog in the scheduler queues.
	if offQ, onQ := off.E.Counters.MeanQueuedTasks(), on.E.Counters.MeanQueuedTasks(); offQ < 10*onQ {
		t.Errorf("queues-only mean task backlog %.0f not clearly worse than admission-on %.0f", offQ, onQ)
	}
}

// TestAdmissionOverloadQuick asserts the acceptance criteria at the quick
// scale's 25 us simulator step.
func TestAdmissionOverloadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("overload simulation")
	}
	checkAdmissionCriteria(t, QuickScale())
}

// TestAdmissionOverloadFull asserts the acceptance criteria at the full
// scale's 5 us simulator step (the step-size robustness check: quick-scale
// dispatch quantization must not be what produces the win).
func TestAdmissionOverloadFull(t *testing.T) {
	if testing.Short() {
		t.Skip("overload simulation at full scale")
	}
	checkAdmissionCriteria(t, FullScale())
}

// TestAdmissionBypassBitIdentical pins the bypass guarantee: statements
// admitted with no contention (free slot, empty queues) dispatch
// synchronously with no fan-out cap, so an admission-enabled engine produces
// results and traffic identical to direct core.Submit — every counter equal,
// bit for bit, on a fixed-seed closed-loop run.
func TestAdmissionBypassBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	run := func(admission bool) *core.Engine {
		spec := bypassBase
		if admission {
			spec.Admission = &admit.Config{
				Tenants:      []admit.TenantSpec{{Name: "t", Weight: 1}},
				OLAPDeadline: 1, InteractiveDeadline: 1,
			}
		}
		// Spec's clients carry no tenant.
		spec.Setup = func(e *core.Engine, t *colstore.Table) {
			workload.NewClients(e, t, workload.ClientsConfig{
				N: 8, Selectivity: spec.Selectivity, Parallel: spec.Parallel, Strategy: spec.Strategy,
				Tenant: "t", Seed: spec.ClientSeed,
			}).Start()
		}
		return runBypass(spec)
	}
	direct := run(false)
	admitted := run(true)

	// The admitted run must never have queued: uncontended means every
	// statement took the synchronous bypass.
	st := admitted.Admit.Stats("t")
	if st.Wait.N() == 0 || st.Wait.Max() != 0 {
		t.Fatalf("admission queued statements (max wait %v) — not the bypass path", st.Wait.Max())
	}
	if st.Shed != 0 {
		t.Fatalf("admission shed %d statements on an uncontended run", st.Shed)
	}

	assertSameRun(t, direct.Counters, admitted.Counters)
}
