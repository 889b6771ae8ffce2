package core

// The engine's planning and shared-scan glue: every statement is built into
// (or arrives as) a logical plan, optimized, and lowered to exec operators,
// and a statement whose lowered plan is shareable is handed to the
// sharedscan.Registry as a cohort member instead of dispatching its private
// ScanOp. The member carries everything the registry needs to assemble the
// statement's pipeline — the predicate, the scheduling parameters, the
// lowered output-phase factory, and the lifecycle hooks — so the registry can
// merge concurrent same-column scans into one physical pass while every
// statement keeps its own latency, logical traffic, and completion callbacks.

import (
	"numacs/internal/colstore"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
)

// planQuery runs one statement through the planner: build the logical tree
// (or take q.Plan), optimize, and lower to exec operators. Statistics are
// collected from the plan's tables only when the plan joins — build side and
// join order are the only stat-driven decisions, and stat-less passes keep
// the written plan — so a plain statement never pays a catalog walk.
func (e *Engine) planQuery(q *Query) *plan.Lowered {
	l := q.Plan
	var stats *plan.Stats
	if l != nil {
		stats = joinStats(l.Root)
	} else {
		l = plan.BuildQuery(plan.Statement{
			Table:                 q.Table,
			Column:                q.Column,
			Selectivity:           q.Selectivity,
			ExtraPredicateColumns: q.ExtraPredicateColumns,
			ProjectColumns:        q.ProjectColumns,
			UseIndex:              q.UseIndex,
			Parallel:              q.Parallel,
			Aggregate:             q.Aggregate,
			AggBytesPerRow:        q.AggBytesPerRow,
			AggCyclesPerRow:       q.AggCyclesPerRow,
		})
	}
	return plan.Optimize(l, stats, &e.Costs).Lower(plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce})
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

// cohortMember wraps a planned shareable statement as a cohort-registry
// member and counts it as an active statement. The member's shed deadline
// extends the admission class deadline into the join window; a shed frees the
// admission slot and fires q.OnShed.
func (e *Engine) cohortMember(q *Query, low *plan.Lowered, st *trace.Statement, gran int, issuedAt float64, release func()) *sharedscan.Member {
	deadline := 0.0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			deadline = issuedAt + d
		}
	}
	e.activeStatements++
	return &sharedscan.Member{
		Key:         low.ShareKey,
		Table:       low.Scan.Table,
		Column:      low.Scan.Column,
		Selectivity: low.Scan.Selectivity,
		Strategy:    q.Strategy,
		HomeSocket:  q.HomeSocket,
		MaxFanout:   gran,
		IssuedAt:    issuedAt,
		Deadline:    deadline,
		Trace:       st,
		SecondOp:    low.SecondOp,
		OnDone:      e.completion(q, release),
		OnShed: func() {
			e.activeStatements--
			if release != nil {
				release()
			}
			if q.OnShed != nil {
				q.OnShed()
			}
		},
	}
}
