package core

// The engine's statement records: every statement's plan comes from the plan
// cache, and the statement runs on a recycled record of its cache entry. A
// join-free plan's member is merged into a cohort pass by the
// sharedscan.Registry when the plan is shareable; a star runs on the
// record's pipeline.

import (
	"numacs/internal/admit"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
)

// stmtRec is one read statement, private, in a scan cohort or a star: its
// admission entry, the cohort member with the statement's pipeline inside
// it, its operators — a join-free plan's by value, a star's made on its
// first fill — and the per-query overhead flow. entry is the cache entry the record belongs to
// and returns to (plancache.go), and phys the plan its member and operators
// were last filled from: a record is filled when its statement begins and
// its entry's plan is not the one it holds, and otherwise runs the
// operators it kept. group is the cohort group the record hands to the
// registry (join): its own member, followed, when it is a batch's first
// record with its cohort key, by the members of the batch's later
// statements with that key (batch.go). The admission entry's Run and
// OnShed, the member's Phases and OnShed hooks, the pipeline's OnDone, the
// private start and the hand-off to the registry are bound once, when a
// record is made.
//
// A record is taken when its statement is submitted, before admission, and
// returns to its free list only inside its own OnDone (done), member OnShed
// (shed) or admission OnShed (dropped), after it has read q and before its
// admission entry's Done. This is sound because the pipeline fires OnDone
// from its last task's Then, after the scheduler has dropped its task
// pointers; the cohort registry reads no member again once the member has
// started or been shed; and the admission controller reads no entry again
// once it has been shed or its Done has read it (see admit.Statement). An
// idle record keeps no cohort pass reachable: free points a join-free
// record's operators back at its own scan, and a finished pipeline clears
// its task slots.
type stmtRec struct {
	e           *Engine
	entry       *cachedPlan
	phys        *plan.Physical
	adm         admit.Statement
	m           sharedscan.Member
	ops         plan.PlainOps
	joins       *plan.JoinOps
	overhead    sim.Flow
	group       []*sharedscan.Member
	start, join func()
	q           *Query
	next        *stmtRec
}

// take returns a record from c's free list, or makes one that returns there.
func (e *Engine) take(c *cachedPlan) *stmtRec {
	r := c.free
	if r != nil {
		c.free, r.next = r.next, nil
		return r
	}
	r = &stmtRec{e: e, entry: c}
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
	return r
}

// fill points r's member and operators at phys, its entry's plan.
func (r *stmtRec) fill(phys *plan.Physical) {
	r.phys = phys
	deps := plan.Deps{Alloc: r.e.Placer.Alloc, DisableCoalesce: r.entry.coalesceOff}
	if len(phys.Joins) > 0 {
		if r.joins == nil {
			r.joins = new(plan.JoinOps)
		}
		r.m.Pipeline.Ops = phys.FillJoins(r.joins, deps)
		return
	}
	s := phys.Scan
	r.m.Key, r.m.Column, r.m.Selectivity = phys.ShareKey, s.Cols[0], s.Selectivity
	r.m.Pipeline.Ops = phys.FillPlain(&r.ops, deps)
}

// refresh fills r from its entry's plan of this instant, unless r holds that
// plan already.
func (r *stmtRec) refresh() {
	if phys := r.entry.physical(r.e); phys != r.phys {
		r.fill(phys)
	}
}

// free returns r to its entry's free list.
func (r *stmtRec) free() {
	r.q, r.adm.Trace, r.m.Pipeline.Trace = nil, nil, nil
	if r.phys != nil && len(r.phys.Joins) == 0 {
		r.m.Pipeline.Ops = r.ops.Private()
	}
	r.next, r.entry.free = r.entry.free, r
}

// admitted is every record's admission Run: a cohort member joins the
// registry, as a group of one, behind the per-query overhead.
func (r *stmtRec) admitted(gran int, issuedAt float64) {
	if r.begin(gran, issuedAt) {
		r.e.startOverhead(&r.overhead, r.join)
	}
}

// begin starts the admitted statement on its entry's plan of this instant,
// refilling r first when that plan is not the one r holds: gran caps its
// fan-out (0 = uncapped), and issuedAt is its statement timestamp — the task
// priority and the base of its latency. The statement runs privately behind
// the per-query overhead, or, when its plan is a shareable scan and the
// engine shares scans, begin reports true and the caller hands r's member
// to the registry. Either way the statement counts as active until it
// completes.
func (r *stmtRec) begin(gran int, issuedAt float64) bool {
	e, q := r.e, r.q
	r.refresh()
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
