package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/metrics"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// recordReuseFingerprint is the sha256 of the metrics.Fingerprint that
// TestStatementRecordReuse's scenario produced before plain statements ran
// on recycled records (every statement then built its own pipeline,
// operators and overhead flow). Print the current value with
// NUMACS_PRINT_FINGERPRINT=1.
const recordReuseFingerprint = "88d9e05df5ce0439c877846794f6df03201e73b958864185ab2bcc37815b225d"

// TestStatementRecordReuse drives the statement-record lifecycle through its
// edge cases and checks that a recycled record is indistinguishable from a
// fresh one:
//   - every OnDone resubmits its client's shape, so a record returns to the
//     engine's free list and is taken again inside the same callback;
//   - statements of one shape run concurrently under admission with
//     different Strategy, HomeSocket and fan-out caps (the controller
//     coarsens and refines granularity while they are in flight);
//   - more than maxPlans one-shot shapes reset the plan cache while
//     records of the old entries are in flight;
//   - tracing is enabled after records already exist.
//
// Every OnDone must fire exactly once, and the run's full-state fingerprint
// must equal the one recorded before records were recycled.
func TestStatementRecordReuse(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 3, 200_000, false)
	ctl := e.EnableAdmission(admit.Config{MaxConcurrent: 8, HighQueuePerWorker: 0.01, LowQueuePerWorker: 1e-9, IdleWorkerFraction: 1, KeepTrace: true})

	const stopAt = 0.008
	var fired []int // per submitted statement, the times its OnDone fired
	submit := func(q *Query, again func()) {
		id := len(fired)
		fired = append(fired, 0)
		q.OnDone = func(float64) {
			fired[id]++
			if again != nil && e.Sim.Now() < stopAt {
				again()
			}
		}
		q.OnShed = func() { t.Errorf("statement %d was shed", id) }
		e.Submit(q)
	}
	var client func(i int)
	client = func(i int) {
		q := &Query{Table: tbl, Column: "COLA", Selectivity: 0.001, Parallel: true,
			ExtraPredicateColumns: []string{"COLB", "COLC"},
			Strategy:              Strategy(i / 3 % 3), HomeSocket: i % 4, Tenant: fmt.Sprint("t", i%2)}
		switch i % 3 {
		case 1:
			q.Aggregate, q.AggBytesPerRow, q.AggCyclesPerRow = true, 8, 8
		case 2:
			q.ProjectColumns = []string{"COLB"}
		}
		submit(q, func() { client(i) })
	}
	for i := 0; i < 8; i++ {
		client(i)
	}

	shapes := 0
	var tr *trace.Tracer
	for step := 0; e.Sim.Now() < stopAt; step++ {
		switch step {
		case 40:
			tr = e.EnableTracing(trace.Config{})
		case 80:
			for k := 0; k < maxPlans+100; k++ {
				submit(&Query{Table: tbl, Column: "COLC", Selectivity: float64(k+1) / 1e6,
					Strategy: Bound, HomeSocket: k % 4, Tenant: "flood"}, nil)
			}
			shapes = e.nPlans
		}
		e.Sim.Step()
	}
	for steps := 0; e.ActiveStatements() > 0 || ctl.Queued() > 0; steps++ {
		if steps > 1_000_000 {
			t.Fatal("statements never drained")
		}
		e.Sim.Step()
	}

	for id, n := range fired {
		if n != 1 {
			t.Fatalf("statement %d: OnDone fired %d times, want once", id, n)
		}
	}
	traced := tr.Statements()
	for _, st := range traced {
		tasks := 0
		for _, n := range st.SocketTasks {
			tasks += n
		}
		if st.Done < 0 || tasks == 0 {
			t.Fatalf("traced statement %d: done at %v after %d task starts", st.ID, st.Done, tasks)
		}
	}
	if len(traced) == 0 {
		t.Error("no statement was traced")
	}
	if shapes >= maxPlans {
		t.Errorf("the plan cache holds %d entries after the flood; it never reset", shapes)
	}
	caps := map[int]bool{}
	for _, s := range ctl.Trace {
		caps[s.GranCap] = true
	}
	if len(caps) < 2 {
		t.Errorf("the admission fan-out cap never changed (%v); statements all ran alike", caps)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(metrics.Fingerprint(e.Counters))))
	if os.Getenv("NUMACS_PRINT_FINGERPRINT") != "" {
		t.Logf("%d statements, fingerprint %s", len(fired), got)
	}
	if got != recordReuseFingerprint {
		t.Fatalf("fingerprint %s, want %s", got, recordReuseFingerprint)
	}
}

// cohortReuseFingerprints are the sha256 of the metrics.Fingerprint and the
// registry stats that TestCohortRecordReuse's two scenarios produced before
// cohort members ran on statement records (every member then built its own
// registry member, hooks, output operator and operator slice). Print the
// current values with NUMACS_PRINT_FINGERPRINT=1.
var cohortReuseFingerprints = map[string]string{
	"admitted": "62e257ec350f5c4d895f8d11866e0bcb8028747ee9cc5ae5542d447fc15733c1",
	"batched":  "4a7ba5f59d53c4cd0c0231b4196507fb98e22de354ccec608dcaed49bf637d00",
}

// TestCohortRecordReuse drives the statement-record lifecycle through the
// cohort registry's edge cases and checks that a recycled record is
// indistinguishable from a fresh member, on two scenarios: "admitted" runs
// every statement through an admission controller whose deadlines shed
// some join-window waiters, and "batched" submits some clients' statements
// as SubmitBatch groups. In both:
//   - every OnDone resubmits its client's shape, half of them inside the
//     callback, and zero-match statements complete synchronously when they
//     start as followers, inside the registry's find-barrier and wrap loops;
//   - every OnShed resubmits the same shape (admitted);
//   - late arrivals attach mid-flight and finish with a wrap pass;
//   - one record shape serves both admission classes, whose deadlines
//     differ;
//   - more than maxPlans one-shot shapes reset the plan cache while
//     members are in flight;
//   - tracing is enabled after records already exist.
//
// Every statement must complete or be shed exactly once, and each run's
// fingerprint must equal the one recorded before cohort records.
func TestCohortRecordReuse(t *testing.T) {
	for _, name := range []string{"admitted", "batched"} {
		t.Run(name, func(t *testing.T) { runCohortRecordReuse(t, name == "batched", cohortReuseFingerprints[name]) })
	}
}

// runCohortRecordReuse runs one scenario of TestCohortRecordReuse and checks
// its fingerprint against want.
func runCohortRecordReuse(t *testing.T, batched bool, want string) {
	e := NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	big := colstore.NewTable("BIG", []*colstore.Column{
		colstore.NewSynthetic("C", 1_000_000, 1<<15, false),
		colstore.NewSynthetic("D", 1_000_000, 1<<13, false),
	})
	e.Placer.PlaceRR(big)
	small := buildPlacedTable(e, 1, 2000, false)
	if !batched {
		e.EnableAdmission(admit.Config{OLAPDeadline: 150e-6, InteractiveDeadline: 60e-6})
	}
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 300e-6, AttachFraction: 0.3})

	const stopAt = 0.004
	var fired []int // per submitted statement, the times OnDone or OnShed fired
	track := func(q *Query, again func()) *Query {
		id := len(fired)
		fired = append(fired, 0)
		end := func() {
			fired[id]++
			if again != nil && e.Sim.Now() < stopAt {
				again()
			}
		}
		q.OnDone = func(float64) { end() }
		q.OnShed = end
		return q
	}
	shape := func(i, k int) *Query {
		q := &Query{Table: big, Column: "C", Selectivity: []float64{0, 1e-4, 1e-3}[k%3], Parallel: true,
			Strategy: Strategy(i % 3), HomeSocket: i % 4, Tenant: fmt.Sprint("t", i%2), Class: admit.Class(i % 2)}
		switch i % 3 {
		case 1:
			q.Aggregate, q.AggBytesPerRow, q.AggCyclesPerRow = true, 8, 8
		case 2:
			q.ProjectColumns = []string{"D"}
		}
		return q
	}
	// Odd clients think before they resubmit, which spreads arrivals over
	// the passes; even clients resubmit inside OnDone and OnShed.
	later := func(i int, again func()) func() {
		if i%2 == 0 {
			return again
		}
		return func() { e.Sim.StartFlow(&sim.Flow{Remaining: float64(i%5+1) * 35e-6, RateCap: 1, OnDone: again}) }
	}
	var single func(i int)
	single = func(i int) { e.Submit(track(shape(i, i), later(i, func() { single(i) }))) }
	var batch func(i int)
	batch = func(i int) {
		left := 3
		again := func() {
			if left--; left == 0 {
				batch(i)
			}
		}
		qs := make([]*Query, left)
		for k := range qs {
			qs[k] = track(shape(i, k), again)
		}
		e.SubmitBatch(qs)
	}
	for i := 0; i < 12; i++ {
		if batched && i%2 == 0 {
			batch(i)
		} else {
			single(i)
		}
	}

	shapes := 0
	var tr *trace.Tracer
	for step := 0; e.Sim.Now() < stopAt; step++ {
		switch step {
		case 100:
			tr = e.EnableTracing(trace.Config{})
		case 300:
			for k := 0; k < maxPlans+100; k++ {
				e.Submit(track(&Query{Table: small, Column: "COLA", Selectivity: float64(k+1) / 1e6,
					Strategy: Bound, HomeSocket: k % 4, Tenant: "flood"}, nil))
			}
			shapes = e.nPlans
		}
		e.Sim.Step()
	}
	for steps := 0; e.ActiveStatements() > 0 || (e.Admit != nil && e.Admit.Queued() > 0); steps++ {
		if steps > 1_000_000 {
			t.Fatal("statements never drained")
		}
		e.Sim.Step()
	}

	for id, n := range fired {
		if n != 1 {
			t.Fatalf("statement %d: ended %d times, want once", id, n)
		}
	}
	st := reg.Stats()
	if st.Attached == 0 || st.Wraps == 0 || st.Merged == 0 {
		t.Errorf("no mid-flight attach, wrap pass or merged launch: %+v", st)
	}
	if batched && st.PlanGrouped == 0 {
		t.Errorf("no plan-grouped member: %+v", st)
	}
	if !batched && st.Shed == 0 {
		t.Errorf("no member was shed from a join window: %+v", st)
	}
	zeroFollowers := 0
	for _, s := range tr.Statements() {
		if len(s.Phases) > 0 && s.Phases[0].Name == "regions" && s.Done >= 0 && s.Phases[len(s.Phases)-1].Tasks == 0 {
			zeroFollowers++
		}
	}
	if zeroFollowers == 0 {
		t.Error("no zero-match follower completed inside a barrier loop")
	}
	if shapes >= maxPlans {
		t.Errorf("the plan cache holds %d entries after the flood; it never reset", shapes)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(metrics.Fingerprint(e.Counters)+fmt.Sprintf("%+v", st))))
	if os.Getenv("NUMACS_PRINT_FINGERPRINT") != "" {
		t.Logf("%d statements, %d zero-match followers, %+v, fingerprint %s", len(fired), zeroFollowers, st, got)
	}
	if got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
}
