package exec

import (
	"numacs/internal/colstore"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// outTask is one planned output task: m qualifying rows of one target column
// whose producing data lives on socket.
type outTask struct {
	col     *colstore.Column
	socket  int
	matches int
}

// outPart is one coalesced output partition: contiguous output slots
// produced by one column's data on one socket.
type outPart struct {
	col     *colstore.Column
	part    *colstore.Part
	socket  int
	matches int
	weight  int
}

// planOutput implements the output scheduling of Section 5.2, shared by
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
func planOutput(p *Pipeline, regions []Region, parallel bool, project []string, disableCoalesce bool) []outTask {
	env := p.Env
	total := 0
	for _, reg := range regions {
		total += reg.Matches
	}
	if total == 0 {
		return nil
	}

	// Fixed-size output slots mapped to producing sockets.
	nSlots := env.Machine.TotalThreads()
	if !parallel {
		nSlots = 1
	}
	slotStart := func(i int) int { return total * i / nSlots }
	firstSlot := func(x int) int { return (x*nSlots + total - 1) / total }
	var parts []outPart
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
	var tasks []outTask
	for _, p := range parts {
		// Targets: the producing column plus every projected column of the
		// same part; the phase is repeated per projected column in parallel
		// (Section 6).
		targets := []*colstore.Column{p.col}
		for _, name := range project {
			if p.part == nil {
				continue
			}
			if pc := p.part.ColumnByName(name); pc != nil {
				targets = append(targets, pc)
			}
		}
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
				tasks = append(tasks, outTask{target, p.socket, tt - f})
			}
		}
	}
	return tasks
}

// MaterializeOp is the output-materialization phase of Section 5.2: dependent
// random accesses into the dictionary of each qualifying row plus output
// writes on the executing worker's socket.
type MaterializeOp struct {
	// Scan produces the qualifying regions to materialize.
	Scan RegionSource
	// ProjectColumns materializes additional columns of the producing part.
	ProjectColumns []string
	// Parallel enables intra-operator parallelism.
	Parallel bool
	// DisableCoalesce turns off the preprocessing optimization that merges
	// contiguous same-socket output regions (ablation only).
	DisableCoalesce bool
}

// Open plans the materialization tasks from the upstream regions.
func (m *MaterializeOp) Open(p *Pipeline) []Task {
	env := p.Env
	tasks := planOutput(p, m.Scan.Regions(), m.Parallel, m.ProjectColumns, m.DisableCoalesce)
	out := make([]Task, 0, len(tasks))
	for _, mt := range tasks {
		mt := mt
		out = append(out, Task{Socket: mt.socket, Run: func(w *sched.Worker, done func()) {
			runMaterialize(env, w, mt.col, mt.matches, done)
		}})
	}
	return out
}

// Close implements Operator.
func (m *MaterializeOp) Close(*Pipeline) {}

// runMaterialize executes one materialization task: m dependent random
// accesses into the dictionary plus output writes on the worker's socket
// (output vectors reuse virtual memory, so writes land wherever the worker
// runs — Section 5.2).
func runMaterialize(env *Env, w *sched.Worker, col *colstore.Column, m int, onDone func()) {
	src := w.Socket()
	var dstWeights []float64
	if col.Replicated() {
		// Probe the dictionary replica with the most MC headroom (the
		// nearest one on an idle machine).
		dstWeights = make([]float64, env.Machine.Sockets)
		dstWeights[BestReplica(env, col, src)] = 1
	} else {
		dstWeights = ComponentWeights(env.Machine.Sockets, col.DictPSM)
	}
	attrSocket := singleSocket(dstWeights)
	demands, rateCap, lt := env.HW.RandomDemands(src, dstWeights, w.CoreRes,
		env.Costs.MatCyclesPerAccess, env.Costs.OutBytesPerMatch, env.Costs.MatMissRate)
	if !w.Bound {
		rateCap *= env.Costs.UnboundStreamPenalty
	}
	miss := env.Costs.MatMissRate
	env.Sim.StartFlow(&sim.Flow{
		Remaining: float64(m),
		RateCap:   rateCap,
		Demands:   demands,
		OnAdvance: func(p float64) {
			bytes := p * topology.CacheLine * miss
			env.addSpreadTraffic(src, dstWeights, bytes, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*env.Costs.MatInstrPerAccess, 0)
			env.addItem(col.Name, attrSocket, Traffic{Bytes: bytes + p*env.Costs.OutBytesPerMatch, DictBytes: bytes})
		},
		OnDone: onDone,
	})
}

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
	// ProjectColumns repeats the aggregation per projected column. It only
	// applies to region sources that carry part information (ScanOp); a
	// JoinOp's probe regions have no part, so projections are not resolved
	// through joins.
	ProjectColumns []string
	// Parallel enables intra-operator parallelism.
	Parallel bool
	// DisableCoalesce turns off output-region coalescing (ablation only).
	DisableCoalesce bool
}

// Open plans the aggregation tasks from the upstream regions.
func (a *AggregateOp) Open(p *Pipeline) []Task {
	env := p.Env
	tasks := planOutput(p, a.Source.Regions(), a.Parallel, a.ProjectColumns, a.DisableCoalesce)
	out := make([]Task, 0, len(tasks))
	for _, at := range tasks {
		at := at
		out = append(out, Task{Socket: at.socket, Run: func(w *sched.Worker, done func()) {
			a.runAggregate(env, w, at.col, at.socket, at.matches, done)
		}})
	}
	return out
}

// Close implements Operator.
func (a *AggregateOp) Close(*Pipeline) {}

// runAggregate executes one aggregation task.
func (a *AggregateOp) runAggregate(env *Env, w *sched.Worker, col *colstore.Column, dataSocket, m int, onDone func()) {
	src := w.Socket()
	dst := dataSocket
	if dst < 0 {
		dst = src
	}
	bytes := float64(m) * a.BytesPerRow
	cpb := 0.0
	if a.BytesPerRow > 0 {
		cpb = a.CyclesPerRow / a.BytesPerRow
	}
	demands, lt := env.HW.StreamDemands(src, dst, w.CoreRes, cpb)
	penalty := 1.0
	if !w.Bound {
		penalty = env.Costs.UnboundStreamPenalty
	}
	env.Sim.StartFlow(&sim.Flow{
		Remaining: bytes,
		RateCap:   env.Machine.StreamRate(src, dst) * penalty,
		Demands:   demands,
		OnAdvance: func(p float64) {
			env.Counters.AddMemoryTraffic(src, dst, p, p*lt.Data, p*lt.Total)
			env.Counters.AddCompute(src, p*cpb*0.8, 0)
			env.addItem(col.Name, dst, Traffic{Bytes: p, IVBytes: p})
		},
		OnDone: onDone,
	})
}
