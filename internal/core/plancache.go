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

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
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
// records (shared.go).
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
