package plan

import (
	"fmt"
	"sort"
	"strings"

	"numacs/internal/colstore"
	"numacs/internal/exec"
)

// Context carries what the optimizer passes consult: the statistics catalog
// (nil is valid — stat-dependent passes keep the written plan), the cost
// model, and the notes sink the EXPLAIN rendering surfaces.
type Context struct {
	Stats *Stats
	Costs *exec.Costs
	// Notes records one note per load-bearing pass decision, in pass order.
	Notes []Note
}

// Note is one EXPLAIN note: a pass decision kept as its format and
// arguments, formatted only when rendered, so planning a statement nobody
// explains formats nothing.
type Note struct {
	format string
	args   []any
}

// String formats the note.
func (n Note) String() string { return fmt.Sprintf(n.format, n.args...) }

// note appends one EXPLAIN note.
func (c *Context) note(format string, args ...any) {
	c.Notes = append(c.Notes, Note{format: format, args: args})
}

// Pass is one optimizer rewrite: a named, tree-to-tree function. Passes may
// mutate the tree they are given (the builders produce a fresh tree per
// statement).
type Pass struct {
	Name        string
	Description string
	Apply       func(*Context, Node) Node
}

// DefaultPasses returns the standard pass pipeline, in application order:
// predicate pushdown, join build-side selection, join ordering.
func DefaultPasses() []Pass {
	return []Pass{
		{Name: "pushdown",
			Description: "fold filter predicates into the scan node they select over",
			Apply:       pushdown},
		{Name: "build-side",
			Description: "build each join's hash table from the smaller estimated input",
			Apply:       buildSide},
		{Name: "join-order",
			Description: "sequence multi-dimension joins by ascending estimated filtered build size",
			Apply:       joinOrder},
	}
}

// Optimize rewrites the logical plan with the default pass pipeline and
// translates it into a physical plan. stats may be nil (stat-dependent
// decisions keep the written plan) and costs may be nil (index-eligibility
// annotation is skipped).
func Optimize(l *Logical, stats *Stats, costs *exec.Costs) *Physical {
	return OptimizeWith(l, stats, costs, DefaultPasses())
}

// OptimizeWith is Optimize with an explicit pass list; an empty list yields
// the direct physical translation of the written plan (the unoptimized
// control the rewrite-preservation property tests execute).
func OptimizeWith(l *Logical, stats *Stats, costs *exec.Costs, passes []Pass) *Physical {
	ctx := &Context{Stats: stats, Costs: costs}
	root := l.Root
	names := make([]string, 0, len(passes))
	for _, p := range passes {
		root = p.Apply(ctx, root)
		names = append(names, p.Name)
	}
	return finalize(ctx, root, names)
}

// ---- passes -----------------------------------------------------------------

// pushdown folds FilterNodes into the ScanNodes beneath them. It is
// semantics-preserving by construction: exec.ScanOp evaluates the primary
// predicate's regions and intersects the extra predicates exactly as the
// filter specifies.
func pushdown(ctx *Context, n Node) Node {
	switch v := n.(type) {
	case *FilterNode:
		child := pushdown(ctx, v.Input)
		if sc, ok := child.(*ScanNode); ok {
			sc.Preds = append(sc.Preds, v.Preds...)
			sc.UseIndex = sc.UseIndex || v.UseIndex
			ctx.note("pushdown: folded %d predicate(s) into scan %s", len(v.Preds), sc.Table.Name)
			return sc
		}
		v.Input = child
		return v
	case *JoinNode:
		v.Build = pushdown(ctx, v.Build)
		v.Probe = pushdown(ctx, v.Probe)
		return v
	case *AggregateNode:
		v.Input = pushdown(ctx, v.Input)
		return v
	case *MaterializeNode:
		v.Input = pushdown(ctx, v.Input)
		return v
	default:
		return n
	}
}

// buildSide chooses each join's hash-table side from the statistics: the
// written build side's estimated post-filter cardinality against the written
// probe side's. Unknown stats (zero estimates on either side) keep the
// written sides — the empty-stats edge case.
func buildSide(ctx *Context, n Node) Node {
	walkJoins(n, func(j *JoinNode) {
		bs := scanOf(j.Build)
		ps := probeBase(j.Probe)
		if bs == nil || ps == nil {
			return
		}
		buildRows := ctx.Stats.estFilteredRows(bs)
		probeRows := ctx.Stats.estFilteredRows(ps)
		if buildRows <= 0 || probeRows <= 0 {
			ctx.note("build-side: %s⋈%s kept (no stats)", bs.Table.Name, ps.Table.Name)
			return
		}
		if probeRows < buildRows {
			j.Swapped = true
			ctx.note("build-side: %s⋈%s swapped — probe side est %.0f rows < build side est %.0f",
				bs.Table.Name, ps.Table.Name, probeRows, buildRows)
			return
		}
		ctx.note("build-side: %s⋈%s kept — build side est %.0f rows <= probe side est %.0f",
			bs.Table.Name, ps.Table.Name, buildRows, probeRows)
	})
	return n
}

// joinOrder sequences a multi-join chain by ascending estimated filtered
// build size, so the cheapest hash table builds first and later probes carry
// the accumulated join selectivity. Single-join plans and stat-less chains
// keep the written order. The rewrite preserves the result multiset: the
// final join's effective cardinality folds every dimension's (selectivity x
// hit rate) product, which is order-invariant.
func joinOrder(ctx *Context, n Node) Node {
	output, chain, terminal := joinChain(n)
	if output == nil || len(chain) < 2 {
		return n
	}
	type keyed struct {
		j   *JoinNode
		est float64
	}
	ks := make([]keyed, len(chain))
	known := true
	for i, j := range chain {
		bs := scanOf(j.Build)
		if bs == nil {
			return n
		}
		ks[i] = keyed{j: j, est: ctx.Stats.estFilteredRows(bs)}
		if ks[i].est <= 0 {
			known = false
		}
	}
	if !known {
		ctx.note("join-order: kept written order (no stats)")
		return n
	}
	// chain[0] is the outermost join (lowered last); ascending lowered order
	// therefore means descending chain order.
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].est > ks[b].est })
	for i := range ks {
		chain[i] = ks[i].j
	}
	relinkChain(output, chain, terminal)
	order := make(buildOrder, len(ks))
	for i := range ks {
		order[len(ks)-1-i] = buildStep{table: scanOf(ks[i].j.Build).Table.Name, est: ks[i].est}
	}
	ctx.note("join-order: %s", order)
	return n
}

// buildStep is one hash-table build of a join-order note.
type buildStep struct {
	table string
	est   float64
}

// buildOrder is the join-order note's argument, rendered as
// "T1(est n1) -> T2(est n2) ..." in lowered order.
type buildOrder []buildStep

// String renders the order.
func (o buildOrder) String() string {
	var b strings.Builder
	for i, st := range o {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s(est %.0f)", st.table, st.est)
	}
	return b.String()
}

// walkJoins visits every JoinNode in the tree, outermost first.
func walkJoins(n Node, f func(*JoinNode)) {
	switch v := n.(type) {
	case *JoinNode:
		f(v)
		walkJoins(v.Build, f)
		walkJoins(v.Probe, f)
	case *FilterNode:
		walkJoins(v.Input, f)
	case *AggregateNode:
		walkJoins(v.Input, f)
	case *MaterializeNode:
		walkJoins(v.Input, f)
	}
}

// scanOf returns the ScanNode beneath n, looking through one FilterNode
// (nil when n is neither).
func scanOf(n Node) *ScanNode {
	switch v := n.(type) {
	case *ScanNode:
		return v
	case *FilterNode:
		if sc, ok := v.Input.(*ScanNode); ok {
			// Report the filter's predicates as if pushed, so estimates work
			// on unoptimized trees too, without mutating the plan.
			tmp := *sc
			tmp.Preds = append(append([]Pred{}, sc.Preds...), v.Preds...)
			return &tmp
		}
	}
	return nil
}

// probeBase returns the terminal (fact) ScanNode of a probe chain.
func probeBase(n Node) *ScanNode {
	for {
		switch v := n.(type) {
		case *JoinNode:
			n = v.Probe
		default:
			return scanOf(n)
		}
	}
}

// joinChain decomposes output(join(join(...(fact)))) into the output node,
// the join chain (outermost first), and the terminal probe node. A tree of a
// different shape returns a nil output.
func joinChain(root Node) (output Node, chain []*JoinNode, terminal Node) {
	var input Node
	switch v := root.(type) {
	case *AggregateNode:
		input = v.Input
	case *MaterializeNode:
		input = v.Input
	default:
		return nil, nil, nil
	}
	n := input
	for {
		j, ok := n.(*JoinNode)
		if !ok {
			break
		}
		chain = append(chain, j)
		n = j.Probe
	}
	if len(chain) == 0 {
		return nil, nil, nil
	}
	return root, chain, n
}

// relinkChain rewires the output node's input through the reordered chain
// down to the terminal probe node.
func relinkChain(output Node, chain []*JoinNode, terminal Node) {
	for i := 0; i < len(chain)-1; i++ {
		chain[i].Probe = chain[i+1]
	}
	chain[len(chain)-1].Probe = terminal
	switch v := output.(type) {
	case *AggregateNode:
		v.Input = chain[0]
	case *MaterializeNode:
		v.Input = chain[0]
	}
}

// ---- physical translation ---------------------------------------------------

// PhysScan is the physical find phase of a statement: the scan operator's
// parameters plus the planner's annotations (index eligibility, estimated
// qualifying rows, partition layout).
type PhysScan struct {
	Table       *colstore.Table
	Selectivity float64
	UseIndex    bool
	Parallel    bool
	// IndexEligible is the planner's advisory echo of the rule exec.ScanOp
	// applies at Open time (exec.IndexEligible): whether this scan will run
	// as index lookups.
	IndexEligible bool
	// EstRows is the estimated qualifying-row count after every predicate
	// (0 when planned without stats).
	EstRows float64
	// Cols is the scan's exec.ScanOp.Cols: its predicate columns, primary
	// first, resolved in every part when the plan is built (EXPLAIN renders
	// their names).
	Cols []*colstore.Column
}

// PhysJoin is one physical hash-join stage: resolved build/probe columns,
// the effective probe hit rate after upstream-join and swap folding, and the
// planner's estimates.
type PhysJoin struct {
	// BuildScan is the dimension filter scan feeding the build side; it is
	// always lowered (the predicate must be evaluated even when the build
	// side is swapped).
	BuildScan *PhysScan
	// BuildKey is the build table's join-key column (inserted into the hash
	// table) and ProbeKey the fact table's foreign-key column, resolved
	// when the plan is built; a join reads single-part tables only.
	BuildTable *colstore.Table
	BuildKey   *colstore.Column
	ProbeTable *colstore.Table
	ProbeKey   *colstore.Column
	HTSockets  []int
	// HitsPerProbeRow is the written per-probe-row cardinality; EffHits is
	// the lowered rate with upstream join selectivities (and, when Swapped,
	// the side exchange) folded in.
	HitsPerProbeRow float64
	EffHits         float64
	Swapped         bool
	// EstBuildRows is the estimated hash-table cardinality.
	EstBuildRows float64
}

// PhysOutput is the statement's output phase.
type PhysOutput struct {
	// Aggregate selects aggregation over materialization.
	Aggregate bool
	// Project is the projection resolved per part when the plan is built:
	// Project[i] lists part i's projected columns in the written order (nil
	// projects nothing; a join plan projects nothing).
	Project      [][]*colstore.Column
	BytesPerRow  float64
	CyclesPerRow float64
	Parallel     bool
}

// Physical is an optimized, lowerable plan: the rewritten logical tree plus
// the typed physical stages and the cohort-feeding metadata.
type Physical struct {
	// Root is the post-rewrite logical tree (rendered by Explain).
	Root Node
	// Scan is the find phase of a plain statement (nil for star plans).
	Scan *PhysScan
	// Joins holds the star plan's join stages in lowered (innermost-first)
	// order (empty for plain statements).
	Joins []*PhysJoin
	// Output is the statement's output phase.
	Output PhysOutput
	// Shareable marks a find phase the sharedscan registry may merge into a
	// cohort (parallel, index-free, single-predicate, single-part); ShareKey
	// is the cohort key (table.column). Plan-time common-subplan detection
	// groups statements by this key (core.SubmitBatch).
	Shareable bool
	ShareKey  string
	// Passes and Notes record the applied pass names and their decisions.
	Passes []string
	Notes  []Note
}

// finalize translates the rewritten tree into physical stages.
func finalize(ctx *Context, root Node, passes []string) *Physical {
	p := &Physical{Root: root, Passes: passes, Notes: ctx.Notes}
	var input Node
	var project []string
	switch v := root.(type) {
	case *AggregateNode:
		p.Output = PhysOutput{Aggregate: true,
			BytesPerRow: v.BytesPerRow, CyclesPerRow: v.CyclesPerRow, Parallel: v.Parallel}
		input, project = v.Input, v.ProjectColumns
	case *MaterializeNode:
		p.Output = PhysOutput{Parallel: v.Parallel}
		input, project = v.Input, v.ProjectColumns
	default:
		panic("plan: root must be a materialize or aggregate node")
	}
	input = foldFilters(input)
	switch v := input.(type) {
	case *ScanNode:
		p.Scan = physScan(ctx, v)
		p.Output.Project = resolveProjection(v.Table, project)
		p.Shareable = v.Parallel && !v.UseIndex && len(v.Preds) == 1 &&
			v.Table.NumParts() == 1
		if p.Shareable {
			p.ShareKey = v.Table.Name + "." + v.Preds[0].Column
		}
	case *JoinNode:
		if !p.Output.Aggregate || len(project) > 0 {
			panic("plan: a join's output must be an aggregate without projections")
		}
		_, chain, terminal := joinChain(root)
		if chain == nil {
			panic("plan: unsupported join tree shape")
		}
		fact, ok := terminal.(*ScanNode)
		if !ok {
			panic("plan: join chain must terminate in a scan")
		}
		// Lowered order is innermost-first: reverse the outermost-first chain.
		upstream := 1.0
		for i := len(chain) - 1; i >= 0; i-- {
			j := chain[i]
			bs, ok := j.Build.(*ScanNode)
			if !ok {
				panic("plan: join build side must fold to a scan")
			}
			pj := &PhysJoin{
				BuildScan:       physScan(ctx, bs),
				BuildTable:      bs.Table,
				BuildKey:        bs.Table.Column(j.BuildKey),
				ProbeTable:      fact.Table,
				ProbeKey:        fact.Table.Column(j.ProbeKey),
				HTSockets:       j.HTSockets,
				HitsPerProbeRow: j.HitsPerProbeRow,
				Swapped:         j.Swapped,
				EstBuildRows:    ctx.Stats.estFilteredRows(bs),
			}
			// Effective probe hit rate: the written rate, scaled by the
			// upstream joins' (selectivity x hits) products so intermediate
			// cardinalities shrink, and by the side exchange when swapped.
			// The k==0 unswapped case stays the written float exactly — the
			// golden bit-identity contract.
			eff := j.HitsPerProbeRow
			if upstream != 1.0 {
				eff *= upstream
			}
			sel := selProduct(bs.Preds)
			if j.Swapped {
				factRows, dimRows := 0.0, 0.0
				if cs, ok := ctx.Stats.Lookup(fact.Table, j.ProbeKey); ok {
					factRows = float64(cs.Rows)
				}
				if cs, ok := ctx.Stats.Lookup(bs.Table, j.BuildKey); ok {
					dimRows = float64(cs.Rows)
				}
				if factRows > 0 && dimRows > 0 {
					// The unfiltered fact builds; the dimension key probes.
					// Folding the dimension selectivity into the hit rate
					// preserves the estimated match count exactly.
					eff = eff * factRows * sel / dimRows
				} else {
					pj.Swapped = false
				}
			}
			pj.EffHits = eff
			upstream *= sel * j.HitsPerProbeRow
			p.Joins = append(p.Joins, pj)
		}
	default:
		panic("plan: unsupported plan shape")
	}
	return p
}

// foldFilters folds any FilterNode left by a pass-less optimization into the
// scans beneath, so lowering is total on unoptimized trees too.
func foldFilters(n Node) Node {
	switch v := n.(type) {
	case *FilterNode:
		child := foldFilters(v.Input)
		if sc, ok := child.(*ScanNode); ok {
			sc.Preds = append(sc.Preds, v.Preds...)
			sc.UseIndex = sc.UseIndex || v.UseIndex
			return sc
		}
		v.Input = child
		return v
	case *JoinNode:
		v.Build = foldFilters(v.Build)
		v.Probe = foldFilters(v.Probe)
		return v
	default:
		return n
	}
}

// physScan translates one folded ScanNode.
func physScan(ctx *Context, sc *ScanNode) *PhysScan {
	ps := &PhysScan{
		Table:    sc.Table,
		Parallel: sc.Parallel,
		UseIndex: sc.UseIndex,
		EstRows:  ctx.Stats.estFilteredRows(sc),
	}
	if len(sc.Preds) > 0 {
		ps.Selectivity = sc.Preds[0].Selectivity
		var buf [4]string // up to four names stay off the heap
		names := buf[:0]
		for _, pr := range sc.Preds {
			names = append(names, pr.Column)
		}
		ps.Cols = exec.ResolveColumns(sc.Table, names...)
		if ctx.Costs != nil && sc.UseIndex {
			ps.IndexEligible = exec.IndexEligible(ctx.Costs, ps.Cols[0], ps.Selectivity)
		}
	}
	return ps
}

// resolveProjection resolves the projected names in every part of t:
// out[i] lists part i's columns in name order (nil for no names).
func resolveProjection(t *colstore.Table, names []string) [][]*colstore.Column {
	if len(names) == 0 {
		return nil
	}
	cols := exec.ResolveColumns(t, names...)
	n := len(t.Parts)
	out := make([][]*colstore.Column, n)
	for i := range out {
		out[i] = make([]*colstore.Column, len(names))
		for k := range names {
			out[i][k] = cols[k*n+i]
		}
	}
	return out
}

// selProduct multiplies a predicate list's selectivities.
func selProduct(preds []Pred) float64 {
	s := 1.0
	for _, p := range preds {
		s *= p.Selectivity
	}
	return s
}
