package core

// The engine's statement records: every statement's plan comes from the plan
// cache, and the statement runs on a record from the engine's one free list,
// filled from its entry's plan when the record last ran another. A
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
// first fill — the per-query overhead flow, and the statement's callbacks.
// entry is the cache entry of the statement the record runs now, or ran
// last (plancache.go), and phys the plan its member and operators were last
// filled from: a record is filled when its statement begins and its entry's
// plan is not the one it holds — its entry replanned, or its last statement
// was of another entry — and otherwise runs the operators it kept. The
// operators keep their task, region and output storage across fills.
// group is the cohort group the record hands to the registry (join): its own
// member, followed, when it is a batch's first record with its cohort key,
// by the members of the batch's later statements with that key (batch.go).
// The admission entry's Run and OnShed, the member's Phases and OnShed
// hooks, the pipeline's OnDone, the private start and the hand-off to the
// registry are bound once, when a record is made.
//
// A record keeps no reference to its Query. What the engine reads of a
// statement after Submit returns is copied when the record is taken
// (record): the strategy and home socket into the pipeline, and the
// callbacks into onDone and onShed; enter copies the tenant and class into
// the admission entry.
//
// A record is taken when its statement is submitted, before admission, and
// returns to the engine's free list only inside its own OnDone (done),
// member OnShed (shed) or admission OnShed (dropped), after it has read its
// callbacks and before its admission entry's Done. This is sound because the pipeline
// fires OnDone from its last task's Then, after the scheduler has dropped
// its task pointers; the cohort registry reads no member again once the
// member has started or been shed; and the admission controller reads no
// entry again once it has been shed or its Done has read it (see
// admit.Statement). An idle record keeps no cohort pass and no caller's
// closure reachable: free clears the callbacks and points a join-free
// record's operators back at its own scan, and a finished pipeline clears
// its task slots. Since any idle record serves any statement, the engine
// holds at most the peak number of statements in flight, whatever the
// number of shapes they run.
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
	onDone      func(latency float64)
	onShed      func()
	next        *stmtRec
}

// take returns an idle record of the engine, or a new one, to run a
// statement of c.
func (e *Engine) take(c *cachedPlan) *stmtRec {
	r := e.free
	if r != nil {
		e.free, r.next = r.next, nil
		r.entry = c
		return r
	}
	e.records++
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

// free returns r to the engine's free list.
func (r *stmtRec) free() {
	r.onDone, r.onShed, r.adm.Trace, r.m.Pipeline.Trace = nil, nil, nil, nil
	if r.phys != nil && len(r.phys.Joins) == 0 {
		r.m.Pipeline.Ops = r.ops.Private()
	}
	r.next, r.e.free = r.e.free, r
}

// admitted is every record's admission Run: a cohort member joins the
// registry, as a group of one, behind the per-query overhead.
func (r *stmtRec) admitted(gran int, issuedAt float64) {
	if r.begin(gran, issuedAt) {
		r.e.startOverhead(&r.overhead, r.join)
	}
}

// begin starts the admitted statement on its entry's plan of this instant,
// refilling r first when that plan is not the one r holds, and binds the
// pipeline's statement fields: the engine's environment, the fan-out cap
// gran (0 = uncapped), the statement timestamp issuedAt — the task priority
// and the base of its latency — and the trace span. The statement runs
// privately behind the per-query overhead, or, when its plan is a shareable
// scan and the engine shares scans, begin reports true and the caller hands
// r's member to the registry. Either way the statement counts as active
// until it completes.
func (r *stmtRec) begin(gran int, issuedAt float64) bool {
	e, p := r.e, &r.m.Pipeline
	r.refresh()
	e.activeStatements++
	p.Env, p.IssuedAt, p.MaxFanout, p.Trace = e.env, issuedAt, gran, r.adm.Trace
	if e.Shared == nil || !r.phys.Shareable {
		e.startOverhead(&r.overhead, r.start)
		return false
	}
	// The member's shed deadline extends the admission class deadline into
	// the join window: a statement begins under a controller only once it
	// entered one, which set its entry's class.
	r.m.Deadline = 0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(r.adm.Class); d > 0 {
			r.m.Deadline = issuedAt + d
		}
	}
	return true
}

// done is every record's pipeline OnDone: the statement leaves the active
// set, frees its admission slot and reports its latency to onDone.
func (r *stmtRec) done(lat float64) {
	onDone := r.onDone
	r.free()
	r.e.activeStatements--
	r.adm.Done()
	if onDone != nil {
		onDone(lat)
	}
}

// shed is every record's member OnShed: the statement leaves the active
// set, frees its admission slot and fires onShed.
func (r *stmtRec) shed() {
	onShed := r.onShed
	r.free()
	r.e.activeStatements--
	r.adm.Done()
	if onShed != nil {
		onShed()
	}
}

// dropped is every record's admission OnShed: the statement never started,
// so it only fires onShed.
func (r *stmtRec) dropped() {
	onShed := r.onShed
	r.free()
	if onShed != nil {
		onShed()
	}
}
