package core

// The plain-statement plan cache. A plain statement (q.Plan == nil) is
// planned from its own fields, the table's Parts and each named column's
// index presence — never from statistics or placement — so every statement of
// one shape gets the same physical plan, and the engine checks and builds it
// once.
//
// None of those inputs can change under a live *colstore.Table: Parts and
// their Columns are fixed at construction (PhysicallyPartition returns a new
// table), and a column's IVPSM is never reset to nil once placed. The one
// input that can change is advisory: PhysScan.IndexEligible, read only by
// EXPLAIN, follows the column's index and the cost model's threshold, so a hit
// re-checks it and replans when it went stale. Star and q.Plan statements are
// not cached: their statistics read live placement, which has no epoch to key
// on yet.

import (
	"math"
	"slices"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
)

// maxPlainPlans bounds the cache: the insert past it starts the cache over.
const maxPlainPlans = 1024

// plainKey is the comparable part of a plain statement's planning inputs.
// Floats key by their bits: -0 and +0 explain differently, and a NaN
// aggregate cost still finds its entry. The name slices key by length and are
// compared element-wise in the bucket, so a lookup allocates nothing.
type plainKey struct {
	table                    *colstore.Table
	column                   string
	sel, aggBytes, aggCycles uint64
	useIndex, parallel       bool
	aggregate, coalesceOff   bool
	extras, projects         int
}

// plainPlan is one cached plain plan: the entry's own copies of the name
// slices, the immutable physical plan, and the free list of its statement
// records.
type plainPlan struct {
	extras, projects []string
	phys             *plan.Physical
	free             *stmtRec
}

// plainPlan returns the cached plan of a plain statement, checking, planning
// and caching it on a miss.
func (e *Engine) plainPlan(q *Query) *plainPlan {
	k := plainKey{
		table:       q.Table,
		column:      q.Column,
		sel:         math.Float64bits(q.Selectivity),
		aggBytes:    math.Float64bits(q.AggBytesPerRow),
		aggCycles:   math.Float64bits(q.AggCyclesPerRow),
		useIndex:    q.UseIndex,
		parallel:    q.Parallel,
		aggregate:   q.Aggregate,
		coalesceOff: e.DisableCoalesce,
		extras:      len(q.ExtraPredicateColumns),
		projects:    len(q.ProjectColumns),
	}
	bucket := e.plans[k]
	for i, pp := range bucket {
		if !slices.Equal(pp.extras, q.ExtraPredicateColumns) || !slices.Equal(pp.projects, q.ProjectColumns) {
			continue
		}
		if pp.phys.Scan.IndexEligible != (q.UseIndex && exec.IndexEligible(&e.Costs, pp.phys.Scan.Cols[0], q.Selectivity)) {
			bucket[i] = e.buildPlain(q)
		}
		return bucket[i]
	}
	check(q)
	if e.plans == nil || e.nPlans >= maxPlainPlans {
		e.plans = make(map[plainKey][]*plainPlan)
		e.nPlans = 0
	}
	pp := e.buildPlain(q)
	e.plans[k] = append(e.plans[k], pp)
	e.nPlans++
	return pp
}

// buildPlain plans a plain statement: Build -> Optimize (no statistics: a
// plain plan makes no stat-driven decision) over the entry's own copies of
// the statement's name slices.
func (e *Engine) buildPlain(q *Query) *plainPlan {
	pp := &plainPlan{
		extras:   slices.Clone(q.ExtraPredicateColumns),
		projects: slices.Clone(q.ProjectColumns),
	}
	pp.phys = plan.Optimize(plan.BuildQuery(plan.Statement{
		Table:                 q.Table,
		Column:                q.Column,
		Selectivity:           q.Selectivity,
		ExtraPredicateColumns: pp.extras,
		ProjectColumns:        pp.projects,
		UseIndex:              q.UseIndex,
		Parallel:              q.Parallel,
		Aggregate:             q.Aggregate,
		AggBytesPerRow:        q.AggBytesPerRow,
		AggCyclesPerRow:       q.AggCyclesPerRow,
	}), nil, &e.Costs)
	return pp
}

// stmtRec is one execution of a join-free plan, private or in a scan cohort:
// the statement's admission entry, the cohort member with the statement's
// pipeline inside it, the operators by value and the per-query overhead flow.
// Records are recycled through their plan's free list, which private and
// cohort runs share. The admission entry's Run and OnShed, the member's scan
// facts, its Phases and OnShed hooks, the pipeline's OnDone, the private
// start and the hand-off to the registry are bound once, when a record is
// made.
//
// A record is taken when its statement is submitted, before admission, and
// returns to the free list only inside its own OnDone (done), member OnShed
// (shed) or admission OnShed (dropped), after it has read q and release.
// This is sound because the pipeline fires OnDone from its last task's Then,
// after the scheduler has dropped its task pointers; the cohort registry
// reads no member again once the member has started or been shed; and the
// admission controller reads no entry again once it has been shed or its
// release has read it (see admit.Statement). An idle record keeps no cohort
// pass reachable: free points its operators back at its own scan, and a
// finished pipeline clears its task slots.
type stmtRec struct {
	e           *Engine
	pp          *plainPlan
	adm         admit.Statement
	m           sharedscan.Member
	ops         plan.PlainOps
	overhead    sim.Flow
	start, join func()
	q           *Query
	release     func()
	next        *stmtRec
}

// take returns a record from the free list, or makes one.
func (pp *plainPlan) take(e *Engine) *stmtRec {
	r := pp.free
	if r == nil {
		r = &stmtRec{e: e, pp: pp}
		r.adm = admit.Statement{Run: r.admitted, OnShed: r.dropped}
		s := pp.phys.Scan
		r.m = sharedscan.Member{
			Key: pp.phys.ShareKey, Table: s.Table, Column: s.Column, Selectivity: s.Selectivity,
			Phases: r.ops.Phases, OnShed: r.shed,
			Pipeline: exec.Pipeline{Ops: pp.phys.FillPlain(&r.ops, e.deps()), OnDone: r.done},
		}
		r.start = r.m.Pipeline.Start
		r.join = func() { e.Shared.Submit(&r.m) }
		return r
	}
	pp.free, r.next = r.next, nil
	return r
}

// free returns r to its free list.
func (r *stmtRec) free() {
	r.q, r.release, r.adm.Trace, r.m.Pipeline.Trace = nil, nil, nil, nil
	r.m.Pipeline.Ops = r.ops.Private()
	r.next, r.pp.free = r.pp.free, r
}

func (r *stmtRec) entry() *admit.Statement { return &r.adm }

// admitted is every record's admission Run.
func (r *stmtRec) admitted(gran int, issuedAt float64, release func()) {
	r.e.run(r, gran, issuedAt, release)
}

// begin starts the admitted statement: gran caps its fan-out (0 =
// uncapped), issuedAt is its statement timestamp — the task priority and
// the base of its latency — and release, when non-nil, frees its admission
// slot before q.OnDone (or q.OnShed) fires. The statement runs privately
// behind the per-query overhead, or, when the plan is a shareable scan and
// the engine shares scans, begin returns r, whose member the caller hands to
// the registry. Either way the statement counts as active until it
// completes.
func (r *stmtRec) begin(gran int, issuedAt float64, release func()) *stmtRec {
	e, q := r.e, r.q
	e.activeStatements++
	r.release = release
	e.bind(&r.m.Pipeline, q, r.adm.Trace, gran, issuedAt)
	if e.Shared == nil || !r.pp.phys.Shareable {
		e.startOverhead(&r.overhead, r.start)
		return nil
	}
	// The member's shed deadline extends the admission class deadline into
	// the join window.
	r.m.Deadline = 0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			r.m.Deadline = issuedAt + d
		}
	}
	return r
}

// done is every record's pipeline OnDone.
func (r *stmtRec) done(lat float64) {
	q, release := r.q, r.release
	r.free()
	r.e.complete(q, release, lat)
}

// shed is every record's member OnShed: the statement leaves the active
// set, frees its admission slot and fires q.OnShed.
func (r *stmtRec) shed() {
	q, release := r.q, r.release
	r.free()
	r.e.activeStatements--
	if release != nil {
		release()
	}
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
