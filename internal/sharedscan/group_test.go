package sharedscan_test

// Plan-driven group tests: core.SubmitBatch hands the registry whole groups
// of same-key members (Registry.SubmitGroup); the group must ride the cohort
// lifecycle as a unit — attaching to a running pass together when the attach
// bound admits it, or queueing behind it together when not — through the
// same entry body as a single Submit, within MaxCohort.

import (
	"fmt"
	"strings"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// TestGroupAttachesMidFlight: a plan-driven group arriving while a pass is in
// its early fraction attaches whole, like timed arrivals would one by one.
func TestGroupAttachesMidFlight(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{})

	leaderDone := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { leaderDone = true },
	})
	e.Sim.Run(100e-6)
	if leaderDone {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}
	done := 0
	qs := make([]*core.Query, 3)
	for i := range qs {
		qs[i] = &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	e.SubmitBatch(qs)
	e.Sim.Run(30e-3)

	if !leaderDone || done != 3 {
		t.Fatalf("statements incomplete: leader=%v group=%d/3", leaderDone, done)
	}
	st := reg.Stats()
	if st.PlanGrouped != 3 {
		t.Fatalf("group not plan-grouped: %+v", st)
	}
	if st.Attached != 3 {
		t.Fatalf("group did not attach whole to the running pass: %+v", st)
	}
	if st.Passes != 1 {
		t.Fatalf("expected one launched pass (plus a wrap): %+v", st)
	}
}

// TestGroupQueuesBehindLateRunningPass: with the attach bound closed, a
// plan-driven group arriving mid-pass queues behind it as one forming cohort
// and launches together when the pass completes — one extra pass, not three.
func TestGroupQueuesBehindLateRunningPass(t *testing.T) {
	e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	table := workload.Generate(*bigTable(8_000_000))
	e.Placer.PlaceRR(table)
	reg := e.EnableSharedScans(sharedscan.Config{DisableAttach: true})

	leaderDone := false
	e.Submit(&core.Query{
		Table: table, Column: "COL000", Selectivity: 1e-5,
		Parallel: true, Strategy: core.Bound,
		OnDone: func(float64) { leaderDone = true },
	})
	e.Sim.Run(100e-6)
	if leaderDone {
		t.Fatal("pass completed before mid-flight point — grow the table")
	}
	done := 0
	qs := make([]*core.Query, 3)
	for i := range qs {
		qs[i] = &core.Query{
			Table: table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { done++ },
		}
	}
	e.SubmitBatch(qs)
	e.Sim.Run(40e-3)

	if !leaderDone || done != 3 {
		t.Fatalf("statements incomplete: leader=%v group=%d/3", leaderDone, done)
	}
	st := reg.Stats()
	if st.PlanGrouped != 3 {
		t.Fatalf("group not plan-grouped: %+v", st)
	}
	if st.Attached != 0 {
		t.Fatalf("attach disabled but members attached: %+v", st)
	}
	if st.Passes != 2 || st.Merged != 2 {
		t.Fatalf("group did not launch as one pass behind the leader: %+v", st)
	}
}

// groupBed is an engine with a traced cohort registry over a table whose
// passes stream for about a millisecond, and a counter of completed
// statements.
type groupBed struct {
	t     *testing.T
	e     *core.Engine
	table *colstore.Table
	reg   *sharedscan.Registry
	log   *trace.DecisionLog
	done  int
}

func newGroupBed(t *testing.T, cfg sharedscan.Config) *groupBed {
	b := &groupBed{t: t, e: core.NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)}
	b.table = workload.Generate(*bigTable(64_000_000))
	b.e.Placer.PlaceRR(b.table)
	b.reg = b.e.EnableSharedScans(cfg)
	b.log = trace.NewDecisionLog(256)
	b.reg.Decisions = b.log
	return b
}

// queries returns n scans of the shared column that count their completion.
func (b *groupBed) queries(n int) []*core.Query {
	qs := make([]*core.Query, n)
	for i := range qs {
		qs[i] = &core.Query{
			Table: b.table, Column: "COL000", Selectivity: 1e-5,
			Parallel: true, Strategy: core.Bound,
			OnDone: func(float64) { b.done++ },
		}
	}
	return qs
}

// run advances the simulation by d and fails the test if a statement
// completed meanwhile: the leader's pass must still stream.
func (b *groupBed) run(d float64) {
	b.e.Sim.Run(b.e.Sim.Now() + d)
	if b.done > 0 {
		b.t.Fatal("a statement completed before the mid-flight point — grow the table")
	}
}

// decisions returns the logged decisions of one kind.
func (b *groupBed) decisions(kind string) []trace.Decision {
	var out []trace.Decision
	for _, d := range b.log.Events() {
		if d.Kind == kind {
			out = append(out, d)
		}
	}
	return out
}

// launches returns the member count and time of every logged cohort launch.
func (b *groupBed) launches() (sizes []int, at []float64) {
	for _, d := range b.decisions("launch") {
		var n int
		if _, err := fmt.Sscanf(d.Cause, "%d members", &n); err != nil {
			b.t.Fatalf("launch cause %q: %v", d.Cause, err)
		}
		sizes = append(sizes, n)
		at = append(at, d.Time)
	}
	return sizes, at
}

// groupArrival returns the time of the one logged plan-group decision.
func (b *groupBed) groupArrival() float64 {
	g := b.decisions("plan-group")
	if len(g) != 1 {
		b.t.Fatalf("want one plan-group decision, got %d", len(g))
	}
	return g[0].Time
}

// TestGroupOverflowingFormingCohortQueuesOnItsOwn: a plan group that does
// not fit the forming cohort's headroom launches that cohort as it is, on
// arrival, and queues as its own cohort, so no pass carries more than
// MaxCohort members — the attach branch refuses the same overflow.
func TestGroupOverflowingFormingCohortQueuesOnItsOwn(t *testing.T) {
	b := newGroupBed(t, sharedscan.Config{MaxCohort: 4, DisableAttach: true})
	b.e.Submit(b.queries(1)[0])
	b.run(100e-6)
	for _, q := range b.queries(2) {
		b.e.Submit(q)
	}
	b.run(50e-6)
	b.e.SubmitBatch(b.queries(3))
	b.run(50e-6)

	sizes, at := b.launches()
	if got, want := fmt.Sprint(sizes), "[1 2]"; got != want {
		t.Fatalf("launched cohorts of %s members while the leader streams, want %s", got, want)
	}
	if at[1] != b.groupArrival() {
		t.Fatalf("the forming cohort launched at %v, not on the group's arrival at %v", at[1], b.groupArrival())
	}
	b.e.Sim.Run(b.e.Sim.Now() + 40e-3)
	if sizes, _ := b.launches(); b.done != 6 || fmt.Sprint(sizes) != "[1 2 3]" {
		t.Fatalf("%d/6 statements completed in cohorts of %v members, want [1 2 3]", b.done, sizes)
	}
	if st := b.reg.Stats(); st.Passes != 3 || st.Merged != 3 || st.PlanGrouped != 3 {
		t.Fatalf("unexpected registry outcome: %+v", st)
	}
}

// TestGroupFillingFormingCohortLaunchesIt: a plan group that fills the
// forming cohort to exactly MaxCohort launches it on arrival, without
// waiting out the join window or the running pass.
func TestGroupFillingFormingCohortLaunchesIt(t *testing.T) {
	b := newGroupBed(t, sharedscan.Config{MaxCohort: 4, DisableAttach: true})
	b.e.Submit(b.queries(1)[0])
	b.run(100e-6)
	b.e.Submit(b.queries(1)[0])
	b.run(50e-6)
	b.e.SubmitBatch(b.queries(3))
	b.run(50e-6)

	sizes, at := b.launches()
	if got, want := fmt.Sprint(sizes), "[1 4]"; got != want {
		t.Fatalf("launched cohorts of %s members, want %s", got, want)
	}
	if at[1] != b.groupArrival() {
		t.Fatalf("the full cohort launched at %v, not on the group's arrival at %v", at[1], b.groupArrival())
	}
	b.e.Sim.Run(b.e.Sim.Now() + 40e-3)
	if b.done != 5 {
		t.Fatalf("%d/5 statements completed", b.done)
	}
}

// TestAttachCauses: a single mid-flight attach and a plan group's attach log
// their own decision texts, which the chaos-burst scoreboard pins.
func TestAttachCauses(t *testing.T) {
	b := newGroupBed(t, sharedscan.Config{})
	b.e.Submit(b.queries(1)[0])
	b.run(100e-6)
	b.e.Submit(b.queries(1)[0])
	b.run(50e-6)
	b.e.SubmitBatch(b.queries(2))
	b.run(50e-6)

	attaches := b.decisions("attach")
	if len(attaches) != 2 {
		t.Fatalf("want two attach decisions, got %+v", attaches)
	}
	if c := attaches[0].Cause; !strings.HasPrefix(c, "running pass at ") || !strings.HasSuffix(c, "% of its bytes (attach bound 75%), 1 riders") {
		t.Errorf("single attach cause %q", c)
	}
	if c := attaches[1].Cause; !strings.HasPrefix(c, "plan group of 2 attached at ") || !strings.HasSuffix(c, "% of the running pass (attach bound 75%)") {
		t.Errorf("group attach cause %q", c)
	}
	b.e.Sim.Run(b.e.Sim.Now() + 40e-3)
	if st := b.reg.Stats(); b.done != 4 || st.Attached != 3 || st.PlanGrouped != 2 {
		t.Fatalf("%d/4 statements completed: %+v", b.done, st)
	}
}

// TestGroupOfOneIsNotPlanGrouped: SubmitGroup of a single member takes the
// per-statement path — no plan-group decision, no PlanGrouped count.
func TestGroupOfOneIsNotPlanGrouped(t *testing.T) {
	b := newGroupBed(t, sharedscan.Config{})
	b.e.SubmitBatch(b.queries(1))
	b.e.Sim.Run(40e-3)

	if b.done != 1 {
		t.Fatal("the statement did not complete")
	}
	if g := b.decisions("plan-group"); len(g) != 0 {
		t.Fatalf("a group of one logged plan-group decisions %+v", g)
	}
	if st := b.reg.Stats(); st.PlanGrouped != 0 || st.Statements != 1 || st.Solo != 1 {
		t.Fatalf("unexpected registry outcome: %+v", st)
	}
}
