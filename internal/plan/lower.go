package plan

import (
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

// Lowered is the executable form of a physical plan: the operator sequence
// for exec.Pipeline. Each lowering emits fresh operators, since operators
// keep per-execution state; the cohort metadata and the output-phase factory
// stay on the Physical (Shareable, ShareKey, OutputOp).
type Lowered struct {
	// Ops is the pipeline's operator sequence (barrier-separated phases).
	Ops []exec.Operator
}

// Lower emits the physical plan's exec operators. The contract the golden
// tests pin: on unrewritten plan shapes the emitted operators carry exactly
// the fields the hand-wired compositions set — a plain statement lowers to
// the same ScanOp + MaterializeOp/AggregateOp pair core.Submit used to build
// inline, and a single-dimension star statement lowers to the same
// [scan, build, probe, aggregate] sequence the star statement was hand-wired
// to before the planner.
func (p *Physical) Lower(d Deps) *Lowered {
	if len(p.Joins) == 0 {
		if p.Scan == nil {
			panic("plan: physical plan has neither scan nor joins")
		}
		return p.LowerScan(p.OutputOp(d))
	}
	low := &Lowered{}
	var last *exec.JoinOp
	for _, pj := range p.Joins {
		bs := pj.BuildScan
		scan := &exec.ScanOp{
			Table:       bs.Table,
			Column:      bs.Column,
			Selectivity: bs.Selectivity,
			Parallel:    bs.Parallel,
		}
		buildKey := pj.BuildTable.Column(pj.BuildKey)
		probeFK := pj.ProbeTable.Column(pj.ProbeKey)
		if buildKey == nil || probeFK == nil {
			panic("plan: join stage names unknown columns")
		}
		j := &exec.JoinOp{
			Build:             buildKey,
			Probe:             probeFK,
			HTSockets:         pj.HTSockets,
			HitsPerProbeRow:   pj.EffHits,
			Alloc:             d.Alloc,
			BuildSource:       scan,
			BuildCyclesPerRow: pj.BuildCyclesPerRow,
			ProbeCyclesPerRow: pj.ProbeCyclesPerRow,
			HTMissRate:        pj.HTMissRate,
		}
		if pj.Swapped {
			// The costed build side is the unfiltered fact column: build and
			// probe exchange, the hash table builds from every fact row
			// (no BuildSource filter), and the dimension predicate — already
			// folded into EffHits — still executes as the scan stage.
			j.Build, j.Probe = probeFK, buildKey
			j.BuildSource = nil
		}
		low.Ops = append(low.Ops, scan, j.BuildOp(), j.ProbeOp())
		last = j
	}
	low.Ops = append(low.Ops, &exec.AggregateOp{
		Source:       last,
		BytesPerRow:  p.Output.BytesPerRow,
		CyclesPerRow: p.Output.CyclesPerRow,
		Parallel:     p.Output.Parallel,
	})
	return low
}

// loweredScan is a lowered plain statement in one allocation: the Lowered,
// its find-phase operator and the backing array of its two-operator sequence.
type loweredScan struct {
	Lowered
	scan exec.ScanOp
	ops  [2]exec.Operator
}

// LowerScan is Lower for a plain (join-free) plan with its output-phase
// factory already built by OutputOp. A caller that lowers one plan many
// times builds the factory once, and each lowering then costs one allocation
// plus whatever the factory allocates for the output operator.
func (p *Physical) LowerScan(secondOp func(src exec.RegionSource) exec.Operator) *Lowered {
	s := p.Scan
	l := &loweredScan{scan: exec.ScanOp{
		Table:                 s.Table,
		Column:                s.Column,
		Selectivity:           s.Selectivity,
		ExtraPredicateColumns: s.ExtraPredicateColumns,
		UseIndex:              s.UseIndex,
		Parallel:              s.Parallel,
	}}
	l.ops = [2]exec.Operator{&l.scan, secondOp(&l.scan)}
	l.Ops = l.ops[:]
	return &l.Lowered
}

// OutputOp returns the output-phase factory of a plain statement: the same
// materialization or aggregation operator over any region source, so the
// private path and every cohort role (leader, follower, attacher) compose
// identical output phases.
func (p *Physical) OutputOp(d Deps) func(src exec.RegionSource) exec.Operator {
	out := p.Output
	return func(src exec.RegionSource) exec.Operator {
		if out.Aggregate {
			return &exec.AggregateOp{
				Source:          src,
				BytesPerRow:     out.BytesPerRow,
				CyclesPerRow:    out.CyclesPerRow,
				ProjectColumns:  out.ProjectColumns,
				Parallel:        out.Parallel,
				DisableCoalesce: d.DisableCoalesce,
			}
		}
		return &exec.MaterializeOp{
			Scan:            src,
			ProjectColumns:  out.ProjectColumns,
			Parallel:        out.Parallel,
			DisableCoalesce: d.DisableCoalesce,
		}
	}
}
