package core

// The engine's statement records and planning glue: every statement is built
// into (or arrives as) a logical plan and optimized — a plain statement's
// plan comes from the plan cache — and runs on a recycled statement record.
// A join-free plan's member is merged into a cohort pass by the
// sharedscan.Registry when the plan is shareable; a star runs on the
// record's pipeline.

import (
	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
)

// stmtRec is one read statement, private, in a scan cohort or a star: its
// admission entry, the cohort member with the statement's pipeline inside
// it, the join-free operators by value and the per-query overhead flow.
// phys is the plan the record runs, and list the free list it returns to:
// its cached plan's (plancache.go), or the engine's planFree for a q.Plan
// statement. A plain record is filled from its cached plan once, when it is
// made. A q.Plan statement is planned when it is admitted, against the
// statistics of that instant: a join-free plan then fills the record's
// member and operators through the same fill, and a star lowers fresh
// operators into its pipeline. group is the cohort group the record hands
// to the registry (join): its own member, followed, when it is a batch's
// first record with its cohort key, by the members of the batch's later
// statements with that key (batch.go). The admission entry's Run and OnShed,
// the member's Phases and OnShed hooks, the pipeline's OnDone, the private
// start and the hand-off to the registry are bound once, when a record is
// made.
//
// A record is taken when its statement is submitted, before admission, and
// returns to its free list only inside its own OnDone (done), member OnShed
// (shed) or admission OnShed (dropped), after it has read q and before its
// admission entry's Done. This is sound because the pipeline fires OnDone
// from its last task's Then, after the scheduler has dropped its task
// pointers; the cohort registry reads no member again once the member has
// started or been shed; and the admission controller reads no entry again
// once it has been shed or its Done has read it (see admit.Statement). An
// idle record keeps no cohort pass or star operators reachable: free points
// its operators back at its own scan, and a finished pipeline clears its
// task slots.
type stmtRec struct {
	e           *Engine
	phys        *plan.Physical
	list        **stmtRec
	adm         admit.Statement
	m           sharedscan.Member
	ops         plan.PlainOps
	overhead    sim.Flow
	group       []*sharedscan.Member
	start, join func()
	q           *Query
	next        *stmtRec
}

// take returns a record from the free list *list, or makes one that returns
// there. A record made for a cached plan is filled from its phys; a q.Plan
// record (phys nil) is filled when its statement is admitted.
func (e *Engine) take(list **stmtRec, phys *plan.Physical) *stmtRec {
	r := *list
	if r != nil {
		*list, r.next = r.next, nil
		return r
	}
	r = &stmtRec{e: e, list: list}
	r.adm = admit.Statement{Run: r.admitted, OnShed: r.dropped}
	r.m = sharedscan.Member{Phases: r.ops.Phases, OnShed: r.shed, Pipeline: exec.Pipeline{OnDone: r.done}}
	r.start = r.m.Pipeline.Start
	r.group = []*sharedscan.Member{&r.m}
	r.join = func() {
		// Truncate before the hand-off: the registry copies the group, and
		// a shed hook inside it may recycle r into a new batch.
		g := r.group
		r.group = g[:1]
		e.Shared.SubmitGroup(g)
	}
	if phys != nil {
		r.fill(phys)
	}
	return r
}

// fill points r's member and operators at the join-free plan phys.
func (r *stmtRec) fill(phys *plan.Physical) {
	s := phys.Scan
	r.phys = phys
	r.m.Key, r.m.Column, r.m.Selectivity = phys.ShareKey, s.Cols[0], s.Selectivity
	r.m.Pipeline.Ops = phys.FillPlain(&r.ops, r.e.deps())
}

// free returns r to its free list.
func (r *stmtRec) free() {
	r.q, r.adm.Trace, r.m.Pipeline.Trace = nil, nil, nil
	r.m.Pipeline.Ops = r.ops.Private()
	r.next, *r.list = *r.list, r
}

// admitted is every record's admission Run: a cohort member joins the
// registry, as a group of one, behind the per-query overhead.
func (r *stmtRec) admitted(gran int, issuedAt float64) {
	if r.begin(gran, issuedAt) {
		r.e.startOverhead(&r.overhead, r.join)
	}
}

// begin starts the admitted statement, planning a q.Plan statement first:
// gran caps its fan-out (0 = uncapped), and issuedAt is its statement
// timestamp — the task priority and the base of its latency. The statement
// runs privately behind the per-query overhead, or, when its plan is a
// shareable scan and the engine shares scans, begin reports true and the
// caller hands r's member to the registry. Either way the statement counts
// as active until it completes.
func (r *stmtRec) begin(gran int, issuedAt float64) bool {
	e, q := r.e, r.q
	if q.Plan != nil {
		phys := plan.Optimize(q.Plan, joinStats(q.Plan.Root), &e.Costs)
		if len(phys.Joins) == 0 {
			r.fill(phys)
		} else {
			r.phys, r.m.Pipeline.Ops = phys, phys.Lower(e.deps())
		}
	}
	e.activeStatements++
	e.bind(&r.m.Pipeline, q, r.adm.Trace, gran, issuedAt)
	if e.Shared == nil || !r.phys.Shareable {
		e.startOverhead(&r.overhead, r.start)
		return false
	}
	// The member's shed deadline extends the admission class deadline into
	// the join window.
	r.m.Deadline = 0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			r.m.Deadline = issuedAt + d
		}
	}
	return true
}

// done is every record's pipeline OnDone.
func (r *stmtRec) done(lat float64) {
	q := r.q
	r.free()
	r.e.complete(q, &r.adm, lat)
}

// shed is every record's member OnShed: the statement leaves the active
// set, frees its admission slot and fires q.OnShed.
func (r *stmtRec) shed() {
	q := r.q
	r.free()
	r.e.activeStatements--
	r.adm.Done()
	if q.OnShed != nil {
		q.OnShed()
	}
}

// dropped is every record's admission OnShed: the statement never started,
// so it only fires q.OnShed.
func (r *stmtRec) dropped() {
	q := r.q
	r.free()
	if q.OnShed != nil {
		q.OnShed()
	}
}

// deps returns the engine-side dependencies of lowering.
func (e *Engine) deps() plan.Deps {
	return plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce}
}

// joinStats collects statistics from the tables a plan reads when the plan
// joins, and returns nil otherwise.
func joinStats(root plan.Node) *plan.Stats {
	var tables []*colstore.Table
	joins := false
	walkPlan(root, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.ScanNode:
			tables = append(tables, v.Table)
		case *plan.JoinNode:
			joins = true
		}
	})
	if !joins {
		return nil
	}
	return plan.Collect(tables...)
}
