package core

// SubmitBatch submits statements that arrived together (one multi-statement
// request, or one scheduler dispatch round); Submit is the batch of one.
// Every statement is checked and takes its record before any of them
// starts, so a bad statement fails the whole batch. The records, chained
// through next, then open their trace spans in order.
//
// With an admission controller each statement queues on its own, since a
// plan-driven group would hide admission's queueing decisions. Without one,
// every statement begins at the batch's one timestamp: a private one starts
// behind its per-query overhead at once, and a shareable one joins the
// group on the batch's first record with its cohort key — the planner's
// common-subplan detection, its half of the sharing loop (the timing half,
// join windows and mid-flight attach, stays in sharedscan). Each group's
// first record then starts one overhead flow, in first-appearance order,
// whose end hands the group to sharedscan.Registry.SubmitGroup, so the
// group shares a pass even where a join window would have split it. One
// flow per group is timing-equivalent to one per member: those would run
// concurrently, on their own connection threads, and end at one instant.
//
// The engine keeps no reference to qs or to its statements once SubmitBatch
// returns: each record copies what it reads later (record).
func (e *Engine) SubmitBatch(qs []*Query) {
	var head *stmtRec
	link := &head
	for _, q := range qs {
		r := e.record(q) // a bad statement fails the batch before any of it starts
		*link, link = r, &r.next
	}
	issuedAt := e.Sim.Now()
	var leaders, next *stmtRec // leaders chains each group's first record
	link = &leaders
	for _, q := range qs {
		r := head
		head, r.next = r.next, nil // admission may free r before enter returns
		st := e.startStatement(q.Tenant, q.Class, q)
		if e.Admit != nil {
			e.enter(&r.adm, q.Tenant, q.Class, st)
			continue
		}
		r.adm.Trace = st
		if r.begin(0, issuedAt) && !joinGroup(leaders, r) {
			*link, link = r, &r.next
		}
	}
	for r := leaders; r != nil; r = next {
		next, r.next = r.next, nil
		e.startOverhead(&r.overhead, r.join)
	}
}

// joinGroup adds r's member to the group of the first record in the chain
// leaders that shares its cohort key, and reports whether there was one.
func joinGroup(leaders, r *stmtRec) bool {
	for l := leaders; l != nil; l = l.next {
		if l.m.Key == r.m.Key {
			l.group = append(l.group, &r.m)
			return true
		}
	}
	return false
}
