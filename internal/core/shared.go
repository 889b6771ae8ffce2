package core

// The engine's planning glue: every statement is built into (or arrives as)
// a logical plan and optimized — a plain statement's plan comes from the
// plan cache. A join-free plan runs on a statement record (plancache.go),
// whose member the sharedscan.Registry merges into a cohort pass when the
// plan is shareable; a star runs on its lowered pipeline, in a plan record.

import (
	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sim"
)

// planRec is one q.Plan statement: its admission entry, and the pipeline and
// overhead flow a star runs on. The statement is planned when it is
// admitted, against the statistics of that instant; a join-free plan then
// runs on a record of a one-off plain plan, whose release is end. Records
// are recycled through the engine's free list; the admission entry's Run and
// OnShed, the pipeline's OnDone, the start and end are bound once, when a
// record is made.
//
// A record returns to the free list only when its statement ends — in its
// pipeline's OnDone (done), its admission OnShed (dropped), or, for a
// join-free plan, the one-off record's release (end) — after it has read q
// and release; the argument is stmtRec's. It must not return earlier: the
// admission controller reads the entry again in release. Each star lowers
// fresh operators, which free drops.
type planRec struct {
	e          *Engine
	adm        admit.Statement
	p          exec.Pipeline
	overhead   sim.Flow
	start, end func()
	q          *Query
	release    func()
	next       *planRec
}

// takePlanRec returns a plan record from the free list, or makes one.
func (e *Engine) takePlanRec() *planRec {
	r := e.planFree
	if r == nil {
		r = &planRec{e: e}
		r.adm = admit.Statement{Run: r.admitted, OnShed: r.dropped}
		r.p.OnDone = r.done
		r.start, r.end = r.p.Start, r.ended
		return r
	}
	e.planFree, r.next = r.next, nil
	return r
}

// free returns r to the engine's free list.
func (r *planRec) free() {
	r.q, r.release, r.adm.Trace, r.p.Trace, r.p.Ops = nil, nil, nil, nil, nil
	r.next, r.e.planFree = r.e.planFree, r
}

func (r *planRec) entry() *admit.Statement { return &r.adm }

// admitted is every plan record's admission Run.
func (r *planRec) admitted(gran int, issuedAt float64, release func()) {
	r.e.run(r, gran, issuedAt, release)
}

// begin plans the admitted statement and starts it as stmtRec.begin does: a
// star on r's pipeline behind the per-query overhead, a join-free plan on a
// record of its own, which begin returns when it is a cohort member.
func (r *planRec) begin(gran int, issuedAt float64, release func()) *stmtRec {
	e, q, st := r.e, r.q, r.adm.Trace
	phys := plan.Optimize(q.Plan, joinStats(q.Plan.Root), &e.Costs)
	r.release = release
	if len(phys.Joins) == 0 {
		m := (&plainPlan{phys: phys}).take(e)
		m.q, m.adm.Trace = q, st
		return m.begin(gran, issuedAt, r.end)
	}
	e.activeStatements++
	r.p.Ops = phys.Lower(e.deps())
	e.bind(&r.p, q, st, gran, issuedAt)
	e.startOverhead(&r.overhead, r.start)
	return nil
}

// done is every plan record's pipeline OnDone.
func (r *planRec) done(lat float64) {
	q, release := r.q, r.release
	r.free()
	r.e.complete(q, release, lat)
}

// ended is every plan record's end: the join-free statement it handed to a
// one-off record has ended, so r returns to the free list and frees the
// admission slot.
func (r *planRec) ended() {
	release := r.release
	r.free()
	if release != nil {
		release()
	}
}

// dropped is every plan record's admission OnShed.
func (r *planRec) dropped() {
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
