package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/metrics"
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
//   - every OnDone resubmits its client's shape, so a record returns to its
//     free list and is taken again inside the same callback;
//   - statements of one shape run concurrently under admission with
//     different Strategy, HomeSocket and fan-out caps (the controller
//     coarsens and refines granularity while they are in flight);
//   - more than maxPlainPlans one-shot shapes reset the plan cache while
//     records of the old entries are in flight;
//   - tracing is enabled after records already exist.
//
// Every OnDone must fire exactly once, and the run's full-state fingerprint
// must equal the one recorded before records were recycled.
func TestStatementRecordReuse(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 3, 200_000, false)
	ctl := e.EnableAdmission(admit.Config{MaxConcurrent: 8, HighQueuePerWorker: 0.01, LowQueuePerWorker: 1e-9, IdleWorkerFraction: 1})

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
			for k := 0; k < maxPlainPlans+100; k++ {
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
	if shapes >= maxPlainPlans {
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
