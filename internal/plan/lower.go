package plan

import (
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/memsim"
)

// Deps are the engine-side dependencies lowering needs: the simulated page
// allocator for operator-internal structures (hash tables) and the engine's
// materialization-coalescing ablation switch.
type Deps struct {
	Alloc *memsim.Allocator
	// DisableCoalesce mirrors core.Engine.DisableCoalesce into the lowered
	// output operators (ablation only).
	DisableCoalesce bool
}

// Lower emits the physical plan's exec operators, in pipeline order, on
// fresh storage. The cohort metadata stays on the Physical (Shareable,
// ShareKey). The contract the golden tests pin: on unrewritten plan shapes
// the emitted operators carry exactly the fields the hand-wired compositions
// set — a plain statement lowers to the same ScanOp + MaterializeOp/
// AggregateOp pair core.Submit used to build inline, and a single-dimension
// star statement lowers to the same [scan, build, probe, aggregate] sequence
// the star statement was hand-wired to before the planner.
func (p *Physical) Lower(d Deps) []exec.Operator {
	if len(p.Joins) == 0 {
		if p.Scan == nil {
			panic("plan: physical plan has neither scan nor joins")
		}
		return p.FillPlain(new(PlainOps), d)
	}
	return p.FillJoins(new(JoinOps), d)
}

// JoinOps is storage for a join plan's operators, which keep their task
// storage when a caller reuses them statement after statement, and plan
// after plan.
type JoinOps struct {
	scans     []exec.ScanOp
	joins     []exec.JoinOp
	aggregate exec.AggregateOp
	ops       []exec.Operator
}

// FillJoins writes a join plan's operators into o and returns them in
// pipeline order — per join its build-side scan, build and probe, then the
// aggregate: the one mapping from a join Physical to exec operators, which
// Lower runs on fresh storage. It sets every exported field of the
// operators and leaves their task, region and span storage to their next
// Open, so refilling o from another plan allocates only where o has fewer
// joins than p.
func (p *Physical) FillJoins(o *JoinOps, d Deps) []exec.Operator {
	n := len(p.Joins)
	if cap(o.joins) < n {
		o.scans, o.joins = make([]exec.ScanOp, n), make([]exec.JoinOp, n)
		o.ops = make([]exec.Operator, 0, 3*n+1)
	}
	o.scans, o.joins, o.ops = o.scans[:n], o.joins[:n], o.ops[:0]
	for i, pj := range p.Joins {
		bs := pj.BuildScan
		scan := &o.scans[i]
		scan.Table, scan.Selectivity, scan.Cols, scan.UseIndex, scan.Parallel = bs.Table, bs.Selectivity, bs.Cols, false, bs.Parallel
		j := &o.joins[i]
		j.Build, j.Probe, j.BuildSource = pj.BuildKey, pj.ProbeKey, scan
		if pj.Swapped {
			// The costed build side is the unfiltered fact column: build and
			// probe exchange, the hash table builds from every fact row
			// (no BuildSource filter), and the dimension predicate — already
			// folded into EffHits — still executes as the scan stage.
			j.Build, j.Probe, j.BuildSource = pj.ProbeKey, pj.BuildKey, nil
		}
		j.HTSockets, j.HitsPerProbeRow, j.Alloc = pj.HTSockets, pj.EffHits, d.Alloc
		o.ops = append(o.ops, scan, j.BuildOp(), j.ProbeOp())
	}
	fillAggregate(&o.aggregate, &o.joins[n-1], &p.Output, nil, d)
	o.ops = append(o.ops, &o.aggregate)
	return o.ops
}

// PlainOps is storage for a plain statement's operators, which keep their
// task storage when a caller reuses them statement after statement, and
// plan after plan.
type PlainOps struct {
	scan        exec.ScanOp
	materialize exec.MaterializeOp
	aggregate   exec.AggregateOp
	ops         [2]exec.Operator
}

// FillPlain writes a plain (join-free) plan's operators into o and returns
// them in pipeline order: the one mapping from a plain Physical to exec
// operators, which Lower runs on fresh storage. Like FillJoins it sets
// every exported field and keeps the operators' storage, so it allocates
// nothing.
func (p *Physical) FillPlain(o *PlainOps, d Deps) []exec.Operator {
	s := p.Scan
	sc := &o.scan
	sc.Table, sc.Selectivity, sc.Cols, sc.UseIndex, sc.Parallel = s.Table, s.Selectivity, s.Cols, s.UseIndex, s.Parallel
	o.ops = [2]exec.Operator{&o.scan, p.Output.fill(&o.materialize, &o.aggregate, &o.scan, d)}
	return o.ops[:]
}

// fill writes the output operator over src into mat or agg, whichever kind
// the plan outputs, and returns it.
func (out *PhysOutput) fill(mat *exec.MaterializeOp, agg *exec.AggregateOp, src exec.RegionSource, d Deps) exec.Operator {
	if out.Aggregate {
		fillAggregate(agg, src, out, out.Project, d)
		return agg
	}
	mat.Scan, mat.Project, mat.Parallel, mat.DisableCoalesce = src, out.Project, out.Parallel, d.DisableCoalesce
	return mat
}

// fillAggregate sets a's exported fields: an aggregation over src, costed
// and parallelized as out says, projecting project.
func fillAggregate(a *exec.AggregateOp, src exec.RegionSource, out *PhysOutput, project [][]*colstore.Column, d Deps) {
	a.Source, a.BytesPerRow, a.CyclesPerRow = src, out.BytesPerRow, out.CyclesPerRow
	a.Project, a.Parallel, a.DisableCoalesce = project, out.Parallel, d.DisableCoalesce
}

// Phases returns o's two phases in pipeline order, with find as the find
// phase and the output phase reading src: a cohort member's find phase is its
// pass or its precomputed regions. It allocates nothing.
func (o *PlainOps) Phases(find exec.Operator, src exec.RegionSource) []exec.Operator {
	o.ops[0] = find
	switch out := o.ops[1].(type) {
	case *exec.MaterializeOp:
		out.Scan = src
	case *exec.AggregateOp:
		out.Source = src
	}
	return o.ops[:]
}

// Private returns o's phases over its own scan, as FillPlain wrote them.
func (o *PlainOps) Private() []exec.Operator { return o.Phases(&o.scan, &o.scan) }
