package core

// The engine's planning glue: every statement is built into (or arrives as)
// a logical plan and optimized — a plain statement's plan comes from the
// plan cache. A join-free plan runs on a statement record (plancache.go),
// whose member the sharedscan.Registry merges into a cohort pass when the
// plan is shareable; a star runs on its lowered pipeline.

import (
	"numacs/internal/colstore"
	"numacs/internal/plan"
)

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
