package sharedscan_test

// Cohort edge-case tests, driven through the real engine (the registry's
// lifecycle only exists between admission and exec, so the tests exercise it
// end to end): mid-flight attach with wrap-around completion, shedding a
// member whose admission deadline expires in the join window (with the
// OnShed hook reentering Submit, the closed-loop pattern of
// TestShedReentrantSubmit), and a cohort over a replicated column fanning
// one slice per replica socket.

import (
	"math"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// bigTable builds a synthetic single-part table whose column passes span
// many simulator steps, so tests can observe a pass mid-flight.
func bigTable(rows int) *workload.DatasetConfig {
	return &workload.DatasetConfig{
		Rows: rows, Columns: 4, BitcaseMin: 12, BitcaseMax: 15,
		Seed: 1, Synthetic: true,
	}
}

func TestMidFlightAttachWrapAround(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{})

	doneA, doneB := false, false
	var latA, latB float64
	q := func(done *bool, lat *float64) *core.Query {
		return &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(l float64) { *done = true; *lat = l },
		}
	}
	e.Submit(q(&doneA, &latA))
	// Let A's pass get under way (past the 30 us query overhead), then
	// submit B mid-flight.
	e.Sim.Run(100e-6)
	if doneA {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}
	e.Submit(q(&doneB, &latB))
	e.Sim.Run(20e-3)

	if !doneA || !doneB {
		t.Fatalf("statements incomplete: A=%v B=%v", doneA, doneB)
	}
	st := reg.Stats()
	if st.Attached != 1 {
		t.Fatalf("B did not attach mid-flight: %+v", st)
	}
	if st.Wraps != 1 {
		t.Fatalf("no wrap-around pass ran for the attacher: %+v", st)
	}
	if st.Passes != 1 {
		t.Fatalf("expected one shared pass, got %+v", st)
	}
	if latB <= 0 || latA <= 0 {
		t.Fatalf("latencies not recorded: A=%v B=%v", latA, latB)
	}
	// Physical sharing: two statements must cost well under two private
	// passes — A's full pass plus B's missed-prefix wrap plus outputs.
	solo := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	stable := workload.Generate(*bigTable(8_000_000))
	solo.Placer.PlaceRR(stable)
	sdone := false
	solo.Submit(&core.Query{
		Table: stable, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { sdone = true },
	})
	solo.Sim.Run(20e-3)
	if !sdone {
		t.Fatal("solo control incomplete")
	}
	soloBytes := solo.Counters.TotalMCBytes()
	if got := e.Counters.TotalMCBytes(); got >= 1.9*soloBytes {
		t.Fatalf("attach did not share the pass: 2 statements cost %.0f bytes vs solo %.0f", got, soloBytes)
	}
}

func TestShedWhileWaitingInJoinWindow(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	// A tight OLAP deadline relative to the pass length, and attach disabled
	// so arrivals during the pass must wait in the join window.
	e.EnableAdmission(admit.Config{OLAPDeadline: 100e-6, InteractiveDeadline: 100e-6})
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 10e-3, DisableAttach: true})

	doneA := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { doneA = true },
	})
	e.Sim.Run(100e-6)
	if doneA {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}

	// B waits in the join window behind A's pass; its deadline expires
	// there. Its OnShed reenters Submit synchronously — the closed-loop
	// reissue pattern — exactly once.
	sheds, doneB := 0, 0
	var qB *core.Query
	qB = &core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { doneB++ },
		OnShed: func() {
			sheds++
			if sheds == 1 {
				e.Submit(qB)
			}
		},
	}
	e.Submit(qB)
	e.Sim.Run(40e-3)

	if sheds == 0 {
		t.Fatal("no shed despite the deadline expiring in the join window")
	}
	if reg.Stats().Shed == 0 {
		t.Fatalf("registry recorded no sheds: %+v", reg.Stats())
	}
	if !doneA {
		t.Fatal("A never completed")
	}
	if e.ActiveStatements() != 0 {
		t.Fatalf("leaked active statements: %d", e.ActiveStatements())
	}
	if e.Admit.InFlight() != 0 {
		t.Fatalf("leaked admission slots: %d in flight", e.Admit.InFlight())
	}
	// The reentrant resubmission must have been either completed or shed,
	// never lost.
	if doneB+sheds < 2 {
		t.Fatalf("resubmitted statement lost: done=%d sheds=%d", doneB, sheds)
	}
}

// TestShedCauseReportsWaitAndDeadline pins the traced join-window shed
// decision: statement B, issued 100 us after A's pass launched, waits behind
// it and is shed on the first Tick past its 100 us OLAP deadline. The cause
// reports B's wait and its class deadline, both measured from B's issue
// time, not the absolute instant its deadline expired.
func TestShedCauseReportsWaitAndDeadline(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	e.EnableAdmission(admit.Config{OLAPDeadline: 100e-6, InteractiveDeadline: 100e-6})
	e.EnableSharedScans(sharedscan.Config{JoinWindow: 10e-3, DisableAttach: true})
	tr := e.EnableTracing(trace.Config{})
	q := func() *core.Query {
		return &core.Query{Table: table, Column: "COL000", Selectivity: 1e-5, Parallel: true, Strategy: core.Bound}
	}
	e.Submit(q())
	e.Sim.Run(100e-6)
	e.Submit(q())
	e.Sim.Run(1e-3)

	for _, d := range tr.Decisions.Events() {
		if d.Source != "cohort" || d.Kind != "shed" {
			continue
		}
		const want = "waited 0.105ms > 0.1ms deadline in the join window"
		if d.Cause != want || math.Abs(d.Time-205e-6) > 1e-9 {
			t.Fatalf("shed at %.4gms: %q, want at 0.205ms: %q", d.Time*1e3, d.Cause, want)
		}
		return
	}
	t.Fatal("no join-window shed was logged")
}

// TestOlderPassCompletionKeepsNewerCohortAttachable pins the registry's
// incumbent rule: when a forming cohort's window closes while an older pass
// is still streaming, the new pass becomes the column's running cohort, and
// the OLDER pass completing must not clear that slot — later arrivals keep
// attaching to the newer in-flight pass instead of launching private ones.
func TestOlderPassCompletionKeepsNewerCohortAttachable(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(64_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{JoinWindow: 100e-6, AttachFraction: 0.5})

	done := 0
	submit := func() {
		e.Submit(&core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		})
	}
	// A launches pass 1 (~1.4 ms). B arrives past the attach fraction, waits
	// out the join window, and launches pass 2 while pass 1 still streams.
	submit()
	e.Sim.Run(900e-6)
	if done != 0 {
		t.Fatal("pass 1 completed too early for the scenario — grow the table")
	}
	submit()
	// C attaches to pass 2 shortly after it launches; D arrives AFTER pass 1
	// completed and must still find pass 2 attachable.
	e.Sim.Run(1100e-6)
	submit()
	e.Sim.Run(1600e-6)
	submit()
	e.Sim.Run(40e-3)

	if done != 4 {
		t.Fatalf("completed %d of 4 statements", done)
	}
	st := reg.Stats()
	if st.Passes != 2 || st.Attached != 2 {
		t.Fatalf("older pass completion broke attachability of the newer cohort: %+v", st)
	}
}

func TestCohortReplicatedColumnOneSlicePerSocket(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.NewWithStep(m, 1, 5e-6)
	table := workload.Generate(*bigTable(2_000_000))
	e.Placer.PlaceRR(table)
	col := table.Parts[0].ColumnByName("COL000")
	primary := col.IVPSM.MajoritySocket()
	for s := 0; s < m.Sockets; s++ {
		if s != primary {
			e.Placer.AddReplica(col, s)
		}
	}
	reg := e.EnableSharedScans(sharedscan.Config{})

	done := 0
	for i := 0; i < 8; i++ {
		e.Submit(&core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound, HomeSocket: i % m.Sockets,
			OnDone: func(float64) { done++ },
		})
	}
	e.Sim.Run(20e-3)

	if done != 8 {
		t.Fatalf("completed %d of 8 statements", done)
	}
	st := reg.Stats()
	if st.Passes != 1 {
		t.Fatalf("expected the 8 scans to share one pass: %+v", st)
	}
	if st.Merged+st.Attached != 7 {
		t.Fatalf("expected 7 sharers: %+v", st)
	}
	// One slice per replica socket: every socket's memory controller must
	// have served part of the cohort pass locally.
	for s := 0; s < m.Sockets; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("socket %d served no bytes — replica slices not fanned per socket: %v",
				s, e.Counters.MCBytes)
		}
	}
}
