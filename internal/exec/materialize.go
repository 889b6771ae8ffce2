package exec

import (
	"numacs/internal/colstore"
	"numacs/internal/sched"
)

// outTask is one planned output task and its record: m qualifying rows of
// one target column whose producing data lives on socket, run by agg (nil
// for a materialization).
type outTask struct {
	col     *colstore.Column
	socket  int
	matches int
	env     *Env
	agg     *AggregateOp
}

// Run implements sched.Runner. A materialization makes m dependent random
// accesses into the dictionary (a replicated one on the replica with the
// most MC headroom) plus output writes on the worker's socket, wherever it
// runs (Section 5.2); an aggregation streams the rows' payload from the
// region's socket and burns the per-row compute.
func (t *outTask) Run(w *sched.Worker, done func()) {
	env := t.env
	if t.agg == nil {
		env.runChain(env.randomFlow(matFlow, w, t.col, t.col.DictPSM, float64(t.matches),
			env.Costs.MatCyclesPerAccess, env.Costs.OutBytesPerMatch, env.Costs.MatMissRate), done)
		return
	}
	dst := t.socket
	if dst < 0 {
		dst = w.Socket()
	}
	cpb := 0.0
	if t.agg.BytesPerRow > 0 {
		cpb = t.agg.CyclesPerRow / t.agg.BytesPerRow
	}
	r := env.streamFlow(aggFlow, w, dst, cpb, float64(t.matches)*t.agg.BytesPerRow)
	r.per = cpb
	r.item = t.col
	env.runChain(r, done)
}

// output is an output operator's storage, refilled by each Open.
type output struct {
	parts   []outPart
	targets []*colstore.Column
	recs    []outTask
	tasks   []Task
}

// open plans and emits the operator's output tasks, run by agg.
func (o *output) open(p *Pipeline, agg *AggregateOp, regions []Region, parallel bool, project [][]*colstore.Column, disableCoalesce bool) []Task {
	recs := o.plan(p, regions, parallel, project, disableCoalesce)
	o.tasks = emptied(o.tasks, len(recs))
	for i := range recs {
		recs[i].env, recs[i].agg = p.Env, agg
		o.tasks = append(o.tasks, Task{Socket: recs[i].socket, Run: &recs[i]})
	}
	return o.tasks
}

// outPart is one coalesced output partition: contiguous output slots
// produced by one column's data on one socket.
type outPart struct {
	col     *colstore.Column
	part    int
	socket  int
	matches int
	weight  int
}

// plan implements the output scheduling of Section 5.2, shared by
// materialization and aggregation: the output vector is divided into one
// fixed slot per hardware context; slot boundaries are resolved to the
// socket of the pages that produce them (via the PSM); contiguous same-socket
// slots are coalesced; and each coalesced partition receives a
// correspondingly weighted number of tasks, at least one, within the
// concurrency hint.
//
// Slot i of n covers output rows [⌊T·i/n⌋, ⌊T·(i+1)/n⌋) of the T matches and
// belongs to the region holding its first row, so region r — whose matches
// start at running total Pᵣ — owns slots [c(Pᵣ), c(Pᵣ₊₁)) with
// c(X) = ⌈X·n/T⌉. The walk is therefore per region, not per slot: a
// region's slots hold ⌊T·b/n⌋ − ⌊T·a/n⌋ matches, and its weight (the number
// of non-empty slots) is b − a when every slot is non-empty (T ≥ n) and the
// match count otherwise (each non-empty slot then holds one match). Only the
// DisableCoalesce ablation walks slots, since it keeps every slot separate.
// project[i] lists the projected columns of part i (see
// MaterializeOp.Project). The partitions and tasks are written into o's
// storage.
func (o *output) plan(p *Pipeline, regions []Region, parallel bool, project [][]*colstore.Column, disableCoalesce bool) []outTask {
	env := p.Env
	total := 0
	for _, reg := range regions {
		total += reg.Matches
	}
	o.parts, o.recs = o.parts[:0], o.recs[:0]
	if total == 0 {
		return o.recs
	}

	// Fixed-size output slots mapped to producing sockets.
	nSlots := env.Machine.TotalThreads()
	if !parallel {
		nSlots = 1
	}
	slotStart := func(i int) int { return total * i / nSlots }
	firstSlot := func(x int) int { return (x*nSlots + total - 1) / total }
	parts := o.parts
	prefix := 0 // matches of the regions before the current one
	for r := range regions {
		reg := &regions[r]
		a := firstSlot(prefix)
		prefix += reg.Matches
		b := firstSlot(prefix)
		if disableCoalesce {
			for i := a; i < b; i++ {
				if m := slotStart(i+1) - slotStart(i); m > 0 {
					parts = append(parts, outPart{col: reg.Col, part: reg.Part, socket: reg.Socket, matches: m, weight: 1})
				}
			}
			continue
		}
		m := slotStart(b) - slotStart(a)
		if m == 0 {
			continue
		}
		weight := b - a
		if total < nSlots {
			weight = m
		}
		if n := len(parts); n > 0 && parts[n-1].socket == reg.Socket && parts[n-1].col == reg.Col {
			parts[n-1].matches += m
			parts[n-1].weight += weight
		} else {
			parts = append(parts, outPart{col: reg.Col, part: reg.Part, socket: reg.Socket, matches: m, weight: weight})
		}
	}

	// Distribute tasks: proportional to weight, at least one per partition,
	// not surpassing the statement's granularity budget.
	hint := p.Hint()
	if !parallel {
		hint = 1
	}
	if hint < len(parts) {
		hint = len(parts)
	}
	totalWeight := 0
	for _, p := range parts {
		totalWeight += p.weight
	}
	tasks := o.recs
	for _, p := range parts {
		// Targets: the producing column plus every projected column of the
		// same part; the phase is repeated per projected column in parallel
		// (Section 6).
		targets := append(o.targets[:0], p.col)
		if p.part < len(project) {
			targets = append(targets, project[p.part]...)
		}
		o.targets = targets
		n := hint * p.weight / totalWeight
		if n < 1 {
			n = 1
		}
		if n > p.matches {
			n = p.matches
		}
		for _, target := range targets {
			for t := 0; t < n; t++ {
				f := p.matches * t / n
				tt := p.matches * (t + 1) / n
				if tt == f {
					continue
				}
				tasks = append(tasks, outTask{col: target, socket: p.socket, matches: tt - f})
			}
		}
	}
	o.parts, o.recs = parts, tasks
	return tasks
}

// MaterializeOp is the output-materialization phase of Section 5.2: dependent
// random accesses into the dictionary of each qualifying row plus output
// writes on the executing worker's socket.
type MaterializeOp struct {
	// Scan produces the qualifying regions to materialize.
	Scan RegionSource
	// Project materializes additional columns of the producing part:
	// Project[i] lists part i's projected columns, resolved by the planner
	// (nil projects nothing).
	Project [][]*colstore.Column
	// Parallel enables intra-operator parallelism.
	Parallel bool
	// DisableCoalesce turns off the preprocessing optimization that merges
	// contiguous same-socket output regions (ablation only).
	DisableCoalesce bool

	out output
}

// Open plans the materialization tasks from the upstream regions.
func (m *MaterializeOp) Open(p *Pipeline) []Task {
	return m.out.open(p, nil, m.Scan.Regions(), m.Parallel, m.Project, m.DisableCoalesce)
}

// Close implements Operator.
func (m *MaterializeOp) Close(*Pipeline) {}

// AggregateOp aggregates the qualifying rows instead of materializing them
// (Section 6.3: aggregations are parallelized like scans and task affinities
// are defined the same way). Each task streams the qualifying rows' payload
// columns from the socket holding its region's data and burns the per-row
// aggregation compute.
type AggregateOp struct {
	// Source produces the qualifying regions to aggregate (a ScanOp or a
	// JoinOp).
	Source RegionSource
	// BytesPerRow is the payload streamed from the aggregated columns per
	// qualifying row (local to the part under PP).
	BytesPerRow float64
	// CyclesPerRow is the per-row compute — high for TPC-H Q1's
	// multiplications, low for BW-EML's simple expressions.
	CyclesPerRow float64
	// Project repeats the aggregation per projected column, laid out like
	// MaterializeOp.Project.
	Project [][]*colstore.Column
	// Parallel enables intra-operator parallelism.
	Parallel bool
	// DisableCoalesce turns off output-region coalescing (ablation only).
	DisableCoalesce bool

	out output
}

// Open plans the aggregation tasks from the upstream regions.
func (a *AggregateOp) Open(p *Pipeline) []Task {
	return a.out.open(p, a, a.Source.Regions(), a.Parallel, a.Project, a.DisableCoalesce)
}

// Close implements Operator.
func (a *AggregateOp) Close(*Pipeline) {}
