package plan

import (
	"fmt"
	"strings"

	"numacs/internal/exec"
)

// PartitionPlan is the planner's partition-layout annotation for one
// physical part of a scanned column: how the find phase will fan out over
// replicas, IVP partitions, or a single socket, and how many delta rows the
// pass unions in. It is derived from live placement metadata at EXPLAIN
// time, so the rendering is deterministic for a fixed placement.
type PartitionPlan struct {
	// Part is the physical part index.
	Part int
	// Rows is the part's row count.
	Rows int
	// Kind is the layout class: "replicated", "ivp", "socket", or "unplaced".
	Kind string
	// Sockets lists the serving sockets: the replica set, each IVP
	// partition's majority socket, or the single home socket.
	Sockets []int
	// DeltaRows counts the watermark-visible uncompressed delta rows the
	// scan unions with the main.
	DeltaRows int
}

// Layout computes the replica/delta-aware partition plan of the scan's
// primary column, one entry per physical part.
func (s *PhysScan) Layout() []PartitionPlan {
	var out []PartitionPlan
	for i, part := range s.Table.Parts {
		col := part.ColumnByName(s.Column)
		if col == nil {
			continue
		}
		pp := PartitionPlan{Part: i, Rows: col.Rows, DeltaRows: col.DeltaRows()}
		switch {
		case col.Replicated():
			pp.Kind = "replicated"
			pp.Sockets = append(pp.Sockets, col.ReplicaSockets...)
		case len(col.Partitions) > 1:
			pp.Kind = "ivp"
			for _, rr := range exec.Partitions(col) {
				pp.Sockets = append(pp.Sockets, rr.Socket)
			}
		case col.IVPSM != nil:
			pp.Kind = "socket"
			pp.Sockets = []int{col.IVPSM.MajoritySocket()}
		default:
			pp.Kind = "unplaced"
		}
		out = append(out, pp)
	}
	return out
}

// Explain renders the logical tree as stable, diffable text — the first of
// the two plan levels the plan goldens (testdata/plans/) pin.
func (l *Logical) Explain() string {
	var b strings.Builder
	b.WriteString("logical:\n")
	renderNode(&b, l.Root, "  ", "  ")
	return b.String()
}

// Explain renders the optimized plan — the rewritten logical tree, the
// physical stages with the planner's annotations, and the pass notes — as
// stable, diffable text (the second plan level the plan goldens pin).
func (p *Physical) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimized logical (passes: %s):\n", strings.Join(p.Passes, ", "))
	renderNode(&b, p.Root, "  ", "  ")
	b.WriteString("physical:\n")
	if p.Scan != nil {
		renderPhysScan(&b, "  find: ", p.Scan)
	}
	for i, j := range p.Joins {
		side := ""
		if j.Swapped {
			side = " swapped"
		}
		fmt.Fprintf(&b, "  join[%d]: build %s.%s (est %.0f rows) probe %s.%s eff-hits=%g ht=%s%s\n",
			i, j.BuildTable.Name, j.BuildKey, j.EstBuildRows,
			j.ProbeTable.Name, j.ProbeKey, j.EffHits, intsLabel(j.HTSockets), side)
		renderPhysScan(&b, "    build-scan: ", j.BuildScan)
	}
	out := "materialize"
	if p.Output.Aggregate {
		out = fmt.Sprintf("aggregate bytes/row=%g cycles/row=%g", p.Output.BytesPerRow, p.Output.CyclesPerRow)
	}
	if len(p.Output.ProjectColumns) > 0 {
		out += fmt.Sprintf(" project=%v", p.Output.ProjectColumns)
	}
	if p.Output.Parallel {
		out += " parallel"
	}
	fmt.Fprintf(&b, "  output: %s\n", out)
	if p.Shareable {
		fmt.Fprintf(&b, "  shareable: yes (cohort key %s)\n", p.ShareKey)
	} else {
		b.WriteString("  shareable: no\n")
	}
	if len(p.Notes) > 0 {
		b.WriteString("notes:\n")
		for _, n := range p.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// renderPhysScan renders one physical scan stage with its annotations and
// partition layout.
func renderPhysScan(b *strings.Builder, prefix string, s *PhysScan) {
	idx := "no"
	if s.IndexEligible {
		idx = "yes"
	}
	extra := ""
	if len(s.ExtraPredicateColumns) > 0 {
		extra = fmt.Sprintf(" extra=%v", s.ExtraPredicateColumns)
	}
	mode := "serial"
	if s.Parallel {
		mode = "parallel"
	}
	fmt.Fprintf(b, "%s%s.%s sel=%g%s %s index=%s est-rows=%.1f\n",
		prefix, s.Table.Name, s.Column, s.Selectivity, extra, mode, idx, s.EstRows)
	pad := strings.Repeat(" ", len(prefix)-len(strings.TrimLeft(prefix, " ")))
	for _, pp := range s.Layout() {
		fmt.Fprintf(b, "%s  part %d: rows=%d %s sockets=%s delta-rows=%d\n",
			pad, pp.Part, pp.Rows, pp.Kind, intsLabel(pp.Sockets), pp.DeltaRows)
	}
}

// renderNode renders one logical node and its children with box-drawing
// indentation.
func renderNode(b *strings.Builder, n Node, firstPrefix, childPad string) {
	b.WriteString(firstPrefix)
	b.WriteString(nodeLabel(n))
	b.WriteString("\n")
	children := nodeChildren(n)
	for i, c := range children {
		connector := "└─ "
		pad := "   "
		if i < len(children)-1 {
			connector = "├─ "
			pad = "│  "
		}
		renderNode(b, c, childPad+connector, childPad+pad)
	}
}

// nodeLabel renders one node's own EXPLAIN line.
func nodeLabel(n Node) string {
	switch v := n.(type) {
	case *ScanNode:
		s := "scan " + v.Table.Name
		if len(v.Preds) > 0 {
			s += " preds=" + predsLabel(v.Preds)
		}
		if v.UseIndex {
			s += " index-permitted"
		}
		if !v.Parallel {
			s += " serial"
		}
		return s
	case *FilterNode:
		s := "filter preds=" + predsLabel(v.Preds)
		if v.UseIndex {
			s += " index-permitted"
		}
		return s
	case *JoinNode:
		s := fmt.Sprintf("join key=%s probe-key=%s hits=%g", v.BuildKey, v.ProbeKey, v.HitsPerProbeRow)
		if len(v.HTSockets) > 0 {
			s += " ht=" + intsLabel(v.HTSockets)
		}
		if v.Swapped {
			s += " swapped"
		}
		return s
	case *AggregateNode:
		return fmt.Sprintf("aggregate bytes/row=%g cycles/row=%g", v.BytesPerRow, v.CyclesPerRow)
	case *MaterializeNode:
		s := "materialize"
		if len(v.ProjectColumns) > 0 {
			s += fmt.Sprintf(" project=%v", v.ProjectColumns)
		}
		return s
	default:
		return fmt.Sprintf("%T", n)
	}
}

// nodeChildren returns a node's children in render order (build before
// probe).
func nodeChildren(n Node) []Node {
	switch v := n.(type) {
	case *FilterNode:
		return []Node{v.Input}
	case *JoinNode:
		return []Node{v.Build, v.Probe}
	case *AggregateNode:
		return []Node{v.Input}
	case *MaterializeNode:
		return []Node{v.Input}
	default:
		return nil
	}
}

// intsLabel renders an int slice as [a b c] without fmt's pointer ambiguity.
func intsLabel(xs []int) string {
	if len(xs) == 0 {
		return "[]"
	}
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d", x)
	}
	return s + "]"
}
