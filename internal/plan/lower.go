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
// for exec.Pipeline, plus the pieces the shared-scan cohort path recomposes
// (the find-phase operator and the output-phase factory).
type Lowered struct {
	// Ops is the pipeline's operator sequence (barrier-separated phases).
	Ops []exec.Operator
	// Scan is the find-phase operator of a plain statement (nil for star
	// plans); the cohort registry replaces it with a shared pass.
	Scan *exec.ScanOp
	// SecondOp builds the statement's private output phase over any
	// find-phase region source — the factory the cohort registry hands each
	// member's regions to. Nil for star plans.
	SecondOp func(src exec.RegionSource) exec.Operator
	// Shareable and ShareKey mirror the physical plan's cohort metadata.
	Shareable bool
	ShareKey  string
}

// Lower emits the physical plan's exec operators. The contract the golden
// tests pin: on unrewritten plan shapes the emitted operators carry exactly
// the fields the hand-wired compositions set — a plain statement lowers to
// the same ScanOp + MaterializeOp/AggregateOp pair core.Submit used to build
// inline, and a single-dimension star statement lowers to the same
// [scan, build, probe, aggregate] sequence the star statement was hand-wired
// to before the planner.
func (p *Physical) Lower(d Deps) *Lowered {
	low := &Lowered{Shareable: p.Shareable, ShareKey: p.ShareKey}
	if len(p.Joins) == 0 {
		s := p.Scan
		if s == nil {
			panic("plan: physical plan has neither scan nor joins")
		}
		scan := &exec.ScanOp{
			Table:                 s.Table,
			Column:                s.Column,
			Selectivity:           s.Selectivity,
			ExtraPredicateColumns: s.ExtraPredicateColumns,
			UseIndex:              s.UseIndex,
			Parallel:              s.Parallel,
		}
		low.Scan = scan
		low.SecondOp = p.secondOp(d)
		low.Ops = []exec.Operator{scan, low.SecondOp(scan)}
		return low
	}
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

// secondOp returns the output-phase factory of a plain statement: the same
// materialization or aggregation operator over any region source, so the
// private path and every cohort role (leader, follower, attacher) compose
// identical output phases.
func (p *Physical) secondOp(d Deps) func(src exec.RegionSource) exec.Operator {
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
