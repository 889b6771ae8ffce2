package core

// Plan-driven cohort formation: SubmitBatch plans a multi-statement batch as
// a unit and detects common subplans across statements before any of them
// executes, so scans that share a find phase land in one cohort regardless of
// arrival timing. This is the planner's half of the sharing loop; the
// timing half (join windows, mid-flight attach) stays in sharedscan.

import "numacs/internal/sharedscan"

// SubmitBatch submits a batch of statements that arrived together (one
// multi-statement request, or one scheduler dispatch round) along Submit's
// path. Every statement is checked, traced, and planned; statements whose
// physical plans share a cohort key — the planner's common-subplan detection
// — are handed to the shared-scan registry as one plan-driven group
// (sharedscan.Registry.SubmitGroup), guaranteeing they share a physical pass
// even when a join window would have missed them. Every other statement
// starts exactly as Submit would start it.
//
// Plan-driven grouping bypasses per-statement admission, so with an
// admission controller installed the batch degrades to per-statement Submit
// calls — admission's queueing decisions would otherwise be invisible to the
// group.
func (e *Engine) SubmitBatch(qs []*Query) {
	for _, q := range qs {
		check(q) // a bad statement fails the batch before any of it starts
	}
	if e.Admit != nil {
		for _, q := range qs {
			e.Submit(q)
		}
		return
	}
	issuedAt := e.Sim.Now()
	groups := make(map[string][]*sharedscan.Member)
	var order []string
	for _, q := range qs {
		m := e.start(q, e.startStatement(q.Tenant, q.Class, q), 0, issuedAt, nil)
		if m == nil {
			continue
		}
		if _, ok := groups[m.Key]; !ok {
			order = append(order, m.Key)
		}
		groups[m.Key] = append(groups[m.Key], m)
	}
	for _, key := range order {
		ms := groups[key]
		// One fixed per-query overhead delay covers the group — each member's
		// overhead flow would run concurrently on its own connection thread
		// and complete at the same instant anyway, so one flow is
		// timing-equivalent and the whole group joins the registry together.
		e.afterOverhead(func() { e.Shared.SubmitGroup(ms) })
	}
}
