package core

import (
	"fmt"

	"numacs/internal/colstore"
	"numacs/internal/plan"
)

// check panics unless every column the statement names exists in every part
// of its table and is placed, every predicate selectivity is a number in
// [0, 1] (a NaN would give its flows NaN work, and would never find its
// cached plan), and every join reads single-part tables into an aggregate
// without projections. Submit runs it before the statement is traced or
// queued, so a bad statement fails at the API edge instead of
// mid-simulation (an unknown predicate would panic inside ScanOp.Open, an
// unplaced table "complete" with no memory traffic, a partitioned join
// table panic in the planner, an unknown projection or a join's projection
// be ignored). It reads metadata only and allocates nothing on the happy
// path.
func check(q *Query) {
	if q.Plan != nil {
		walkPlan(q.Plan.Root, checkNode)
		return
	}
	checkSelectivity(q.Column, q.Selectivity)
	checkColumns(q.Table, q.Column)
	checkColumns(q.Table, q.ExtraPredicateColumns...)
	checkColumns(q.Table, q.ProjectColumns...)
}

// checkNode checks the columns one plan node names against the table its
// rows come from (a join's build key against its build side).
func checkNode(n plan.Node) {
	switch v := n.(type) {
	case *plan.ScanNode:
		for _, p := range v.Preds {
			checkSelectivity(p.Column, p.Selectivity)
			checkColumns(v.Table, p.Column)
		}
	case *plan.FilterNode:
		for _, p := range v.Preds {
			checkSelectivity(p.Column, p.Selectivity)
			checkColumns(baseTable(v), p.Column)
		}
	case *plan.JoinNode:
		build, probe := baseTable(v.Build), baseTable(v)
		checkJoinTable(build)
		checkJoinTable(probe)
		checkColumns(build, v.BuildKey)
		checkColumns(probe, v.ProbeKey)
	case *plan.AggregateNode:
		if joins(v.Input) && len(v.ProjectColumns) > 0 {
			panic(fmt.Sprintf("core: a join projects no columns, but its aggregate projects %v", v.ProjectColumns))
		}
		checkColumns(baseTable(v), v.ProjectColumns...)
	case *plan.MaterializeNode:
		if joins(v.Input) {
			panic("core: a join's output must be an aggregate, not a materialization")
		}
		checkColumns(baseTable(v), v.ProjectColumns...)
	}
}

// checkJoinTable panics when a join reads a physically partitioned table:
// the planner resolves a join key to one column.
func checkJoinTable(t *colstore.Table) {
	if t != nil && t.NumParts() != 1 {
		panic(fmt.Sprintf("core: join table %s is physically partitioned into %d parts", t.Name, t.NumParts()))
	}
}

// joins reports whether n's rows come out of a join.
func joins(n plan.Node) bool {
	for {
		switch v := n.(type) {
		case *plan.JoinNode:
			return true
		case *plan.FilterNode:
			n = v.Input
		default:
			return false
		}
	}
}

// checkSelectivity panics unless a predicate's selectivity lies in [0, 1];
// NaN fails both comparisons.
func checkSelectivity(column string, sel float64) {
	if !(sel >= 0 && sel <= 1) {
		panic(fmt.Sprintf("core: selectivity %v of column %q is outside [0, 1]", sel, column))
	}
}

// checkColumns panics unless each named column exists in every part of the
// table and its indexvector is placed.
func checkColumns(t *colstore.Table, names ...string) {
	for _, name := range names {
		if t == nil {
			panic(fmt.Sprintf("core: column %q names no table", name))
		}
		for _, part := range t.Parts {
			c := part.ColumnByName(name)
			if c == nil {
				panic(fmt.Sprintf("core: table %s has no column %q", t.Name, name))
			}
			if c.IVPSM == nil {
				panic(fmt.Sprintf("core: column %s.%s is not placed", t.Name, name))
			}
		}
	}
}

// walkPlan visits every node of a logical plan tree, parents first.
func walkPlan(n plan.Node, visit func(plan.Node)) {
	visit(n)
	switch v := n.(type) {
	case *plan.FilterNode:
		walkPlan(v.Input, visit)
	case *plan.JoinNode:
		walkPlan(v.Build, visit)
		walkPlan(v.Probe, visit)
	case *plan.AggregateNode:
		walkPlan(v.Input, visit)
	case *plan.MaterializeNode:
		walkPlan(v.Input, visit)
	}
}

// baseTable returns the table a node's rows come from: the scanned table,
// following the probe side through joins (a star's fact table).
func baseTable(n plan.Node) *colstore.Table {
	for {
		switch v := n.(type) {
		case *plan.ScanNode:
			return v.Table
		case *plan.FilterNode:
			n = v.Input
		case *plan.JoinNode:
			n = v.Probe
		case *plan.AggregateNode:
			n = v.Input
		case *plan.MaterializeNode:
			n = v.Input
		default:
			return nil
		}
	}
}
