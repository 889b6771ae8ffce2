package core

// The engine's planning and shared-scan glue: every statement is built into
// (or arrives as) a logical plan and optimized — a plain statement's plan
// comes from the plan cache — and a statement whose plan is shareable is
// handed to the sharedscan.Registry as a cohort member instead of being
// lowered to a private ScanOp. The member carries the predicate, the
// output-phase factory, the shed hook and the statement's own pipeline, so
// the registry can merge concurrent same-column scans into one physical pass
// while every statement keeps its own latency, logical traffic, and
// completion callbacks.

import (
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
)

// planned is a statement's physical plan and, when the plan is join-free,
// its output-phase factory.
type planned struct {
	phys     *plan.Physical
	secondOp func(src exec.RegionSource) exec.Operator
}

// planQuery returns a plain statement's cached plan pp (plancache.go), or
// optimizes a q.Plan statement's tree. Statistics are collected from the
// plan's tables only when it joins — build side and join order are the only
// stat-driven decisions, and stat-less passes keep the written plan.
func (e *Engine) planQuery(q *Query, pp *plainPlan) planned {
	if pp != nil {
		return pp.planned
	}
	pl := planned{phys: plan.Optimize(q.Plan, joinStats(q.Plan.Root), &e.Costs)}
	if len(pl.phys.Joins) == 0 {
		pl.secondOp = pl.phys.OutputOp(e.deps())
	}
	return pl
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

// cohortMember wraps a planned shareable statement as a cohort-registry
// member and counts it as an active statement. The member's shed deadline
// extends the admission class deadline into the join window; a shed frees the
// admission slot and fires q.OnShed.
func (e *Engine) cohortMember(q *Query, pl planned, st *trace.Statement, gran int, issuedAt float64, release func()) *sharedscan.Member {
	deadline := 0.0
	if e.Admit != nil {
		if d := e.Admit.DeadlineFor(q.Class); d > 0 {
			deadline = issuedAt + d
		}
	}
	e.activeStatements++
	m := &sharedscan.Member{
		Key:         pl.phys.ShareKey,
		Table:       pl.phys.Scan.Table,
		Column:      pl.phys.Scan.Column,
		Selectivity: pl.phys.Scan.Selectivity,
		Deadline:    deadline,
		SecondOp:    pl.secondOp,
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
	e.bind(&m.Pipeline, q, st, gran, issuedAt)
	m.Pipeline.OnDone = func(lat float64) { e.complete(q, release, lat) }
	return m
}
