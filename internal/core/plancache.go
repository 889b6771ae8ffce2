package core

// The plan cache, for every read statement. A statement is planned once per
// shape — a plain statement's fields, or a Query.Plan statement's written
// tree — and per inputs, and runs on a recycled record of its entry that
// keeps its operators (shared.go).
//
// An entry is valid while every input its planning read that can change
// under a live table is unchanged. A plan with joins reads the statistics of
// its tables (plan.ColumnStats: rows, bitcase, watermark-visible delta rows,
// index presence, placement, replicas, IVP parts) and the cost model. A
// join-free plan reads no statistics; when its scan may use an index, its
// advisory PhysScan.IndexEligible reads the index presence of the scan's
// primary column and the cost model's threshold, and otherwise it reads
// nothing that can change. A statement collects its entry's inputs when it begins,
// without allocating, and replans the entry when they differ, so an entry
// never goes stale and no mutation site has to tell the cache. Everything
// else planning reads is fixed under a live *colstore.Table: its Parts and
// their Columns are fixed at construction (PhysicallyPartition returns a new
// table), and a placed column stays placed.

import (
	"math"
	"slices"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
)

// maxPlans bounds the cache: the insert past it starts the cache over.
const maxPlans = 1024

// planKey is the comparable part of a statement's cache key: a plain
// statement's fields, or a Query.Plan statement's structural hash
// (plan.Logical.Hash) with the plain fields zero; and the engine's
// coalescing switch, which lowering reads. Floats key by their bits: -0 and
// +0 explain differently, and a NaN aggregate cost still finds its entry.
// The name slices key by length and the written tree by its hash, and both
// are compared in the bucket, so a lookup allocates nothing.
type planKey struct {
	table                    *colstore.Table
	column                   string
	sel, aggBytes, aggCycles uint64
	useIndex, parallel       bool
	aggregate, coalesceOff   bool
	extras, projects         int
	tree                     uint64
}

// cachedPlan is one cache entry: the statement it plans — a plain
// statement's fields with the entry's own copies of its name slices, or the
// entry's own copy of a written tree — the inputs its plan was made from,
// the plan, and the free list of its statement records.
type cachedPlan struct {
	stmt        plan.Statement
	written     *plan.Logical
	coalesceOff bool

	// tables are the tables whose statistics the plan read (a join plan's;
	// nil for a join-free plan), and stats their snapshot. index is the
	// column whose index presence indexed records (a join-free scan's
	// primary column when the scan may use an index), and costs the cost
	// model, which counts when tables or index is set.
	tables  []*colstore.Table
	stats   []plan.ColumnStats
	index   *colstore.Column
	indexed bool
	costs   exec.Costs

	phys *plan.Physical
	free *stmtRec
}

// cachedPlan returns q's cache entry, checking q and making the entry on a
// miss. The entry is planned when a statement of it first begins.
func (e *Engine) cachedPlan(q *Query) *cachedPlan {
	k := planKey{coalesceOff: e.DisableCoalesce}
	if q.Plan != nil {
		k.tree = q.Plan.Hash()
	} else {
		k.table, k.column = q.Table, q.Column
		k.sel = math.Float64bits(q.Selectivity)
		k.aggBytes = math.Float64bits(q.AggBytesPerRow)
		k.aggCycles = math.Float64bits(q.AggCyclesPerRow)
		k.useIndex, k.parallel, k.aggregate = q.UseIndex, q.Parallel, q.Aggregate
		k.extras, k.projects = len(q.ExtraPredicateColumns), len(q.ProjectColumns)
	}
	bucket := e.plans[k]
	for _, c := range bucket {
		if c.matches(q) {
			return c
		}
	}
	check(q)
	if e.plans == nil || e.nPlans >= maxPlans {
		e.plans = make(map[planKey][]*cachedPlan)
		e.nPlans = 0
	}
	c := &cachedPlan{coalesceOff: e.DisableCoalesce}
	if q.Plan != nil {
		c.written = q.Plan.Clone()
		c.tables = joinTables(c.written.Root)
	} else {
		c.stmt = plan.Statement{
			Table:                 q.Table,
			Column:                q.Column,
			Selectivity:           q.Selectivity,
			ExtraPredicateColumns: slices.Clone(q.ExtraPredicateColumns),
			ProjectColumns:        slices.Clone(q.ProjectColumns),
			UseIndex:              q.UseIndex,
			Parallel:              q.Parallel,
			Aggregate:             q.Aggregate,
			AggBytesPerRow:        q.AggBytesPerRow,
			AggCyclesPerRow:       q.AggCyclesPerRow,
		}
	}
	e.plans[k] = append(e.plans[k], c)
	e.nPlans++
	return c
}

// matches reports whether c plans q, whose key equals c's.
func (c *cachedPlan) matches(q *Query) bool {
	if q.Plan != nil {
		return c.written != nil && plan.Equal(c.written, q.Plan)
	}
	return c.written == nil && slices.Equal(c.stmt.ExtraPredicateColumns, q.ExtraPredicateColumns) &&
		slices.Equal(c.stmt.ProjectColumns, q.ProjectColumns)
}

// physical returns c's plan for this instant: the cached one while its
// inputs are unchanged, else a fresh plan (replan).
func (c *cachedPlan) physical(e *Engine) *plan.Physical {
	if c.phys == nil || !c.current(e) {
		c.replan(e)
	}
	return c.phys
}

// current reports whether c's inputs are what they were when c was planned,
// collecting its tables' statistics into the engine's snapshot buffer. A
// join-free plan that may not use an index read none.
func (c *cachedPlan) current(e *Engine) bool {
	if c.index == nil && c.tables == nil {
		return true
	}
	if e.Costs != c.costs || c.index != nil && (c.index.Idx != nil) != c.indexed {
		return false
	}
	e.snap = plan.Snapshot(e.snap[:0], c.tables...)
	return slices.Equal(e.snap, c.stats)
}

// replan plans c now — Build (or a copy of the written tree) -> Optimize,
// with statistics collected from c's tables — and records the inputs the
// plan read.
func (c *cachedPlan) replan(e *Engine) {
	var stats *plan.Stats
	if c.tables != nil {
		c.stats = plan.Snapshot(c.stats[:0], c.tables...)
		stats = plan.Collect(c.tables...)
	}
	l := c.written
	if l == nil {
		l = plan.BuildQuery(c.stmt)
	} else {
		l = l.Clone()
	}
	c.costs = e.Costs
	c.phys = plan.Optimize(l, stats, &c.costs)
	c.index = nil
	if s := c.phys.Scan; s != nil && s.UseIndex {
		c.index, c.indexed = s.Cols[0], s.Cols[0].Idx != nil
	}
}

// joinTables returns the distinct tables a plan scans when the plan joins,
// and nil otherwise.
func joinTables(root plan.Node) []*colstore.Table {
	var tables []*colstore.Table
	joins := false
	walkPlan(root, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.ScanNode:
			if !slices.Contains(tables, v.Table) {
				tables = append(tables, v.Table)
			}
		case *plan.JoinNode:
			joins = true
		}
	})
	if !joins {
		return nil
	}
	return tables
}
