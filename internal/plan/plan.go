// Package plan is the cost-based logical/physical planner over the exec
// operator pipeline. Statements enter as declarative specs (the fields of a
// core.Query or a star-join statement), are built into a logical plan tree
// (Scan/Filter/Join/Aggregate/Materialize nodes with predicates and column
// references), rewritten by a small optimizer pass pipeline — predicate
// pushdown into the scan, join build-side selection and join ordering from
// column statistics (row counts, bitcase widths, replica placement), and
// delta/replica-aware partition planning — and lowered into the existing
// exec.Pipeline operators. The lowering contract is strict: on the written
// plan shapes the emitted operators are field-for-field identical to the
// hand-wired compositions they replace, so planner-driven execution is
// pinned counter-identical to the legacy paths by the harness golden tests.
//
// The planner also closes the loop between statement admission and the
// sharedscan cohort layer: a physical plan whose find phase is a shareable
// scan carries the cohort key (table.column), and core.SubmitBatch groups
// statements whose plans share that key into one plan-driven cohort instead
// of relying on arrival timing (see Physical.Shareable and
// sharedscan.Registry.SubmitGroup).
package plan

import (
	"fmt"

	"numacs/internal/colstore"
)

// Pred is one conjunctive range predicate on a named column. Selectivity is
// the analytic qualifying fraction, matching the simulation's analytic scan
// model.
type Pred struct {
	Column      string
	Selectivity float64
}

// Node is one logical plan node. The concrete node types below form the
// trees the builders produce: an output node (MaterializeNode or
// AggregateNode) over a chain of JoinNodes terminating in ScanNodes, with
// FilterNodes above scans until the pushdown pass folds them in.
type Node interface {
	logicalNode()
}

// ScanNode reads one table's rows. Preds holds the conjunctive predicates
// already pushed into the scan — empty on a freshly built tree, populated by
// the pushdown pass (Preds[0] is the primary predicate whose qualifying
// regions feed the downstream operator).
type ScanNode struct {
	Table    *colstore.Table
	Parallel bool
	Preds    []Pred
	// UseIndex permits index lookups for the pushed predicates when the
	// column has an index and the cost model's selectivity threshold admits
	// them (the decision itself stays in exec.ScanOp at Open time; see
	// exec.IndexEligible for the shared rule).
	UseIndex bool
}

func (*ScanNode) logicalNode() {}

// FilterNode applies conjunctive range predicates to its input. The builders
// emit it above the scan; the pushdown pass folds it into the ScanNode, and
// lowering folds any remaining filter itself so unoptimized plans stay
// executable.
type FilterNode struct {
	Input    Node
	Preds    []Pred
	UseIndex bool
}

func (*FilterNode) logicalNode() {}

// JoinNode hash-joins its build side (a filtered dimension scan) against its
// probe side (the fact scan, or an inner JoinNode for multi-dimension star
// statements) on the named key columns.
type JoinNode struct {
	Build Node
	Probe Node
	// BuildKey names the join-key column on the build side's table (inserted
	// into the hash table); ProbeKey the probed foreign-key column on the
	// fact table.
	BuildKey string
	ProbeKey string
	// HitsPerProbeRow is the analytic join cardinality per probe row against
	// the unfiltered build side.
	HitsPerProbeRow float64
	// HTSockets places the operator-internal hash table (empty defaults to
	// the build column's majority socket, decided inside the operator).
	HTSockets []int
	// Swapped is set by the build-side pass when the costed build side is
	// the written probe side: the hash table builds from the unfiltered fact
	// column and the dimension key becomes the probe stream, with the
	// dimension predicate's selectivity folded into the effective hit rate.
	Swapped bool
}

func (*JoinNode) logicalNode() {}

// MaterializeNode is the output phase of a plain scan statement: the
// qualifying rows' values are gathered through the dictionary.
type MaterializeNode struct {
	Input          Node
	ProjectColumns []string
	Parallel       bool
}

func (*MaterializeNode) logicalNode() {}

// AggregateNode is the aggregation output phase: the qualifying (or
// join-matching) rows' measures are streamed and folded.
type AggregateNode struct {
	Input          Node
	BytesPerRow    float64
	CyclesPerRow   float64
	ProjectColumns []string
	Parallel       bool
}

func (*AggregateNode) logicalNode() {}

// Logical is a built (pre-optimization) logical plan.
type Logical struct {
	Root Node
}

// Statement mirrors the planning-relevant fields of core.Query: one
// SELECT ... WHERE col BETWEEN ? AND ? statement, optionally with extra
// conjunctive predicates, projections, and an aggregation output phase.
type Statement struct {
	Table                 *colstore.Table
	Column                string
	Selectivity           float64
	ExtraPredicateColumns []string
	ProjectColumns        []string
	UseIndex              bool
	Parallel              bool
	Aggregate             bool
	AggBytesPerRow        float64
	AggCyclesPerRow       float64
}

// BuildQuery builds the logical plan of a plain statement:
// output(filter(scan)). Predicates start on the FilterNode; the pushdown
// pass folds them into the scan.
func BuildQuery(st Statement) *Logical {
	preds := make([]Pred, 0, 1+len(st.ExtraPredicateColumns))
	preds = append(preds, Pred{Column: st.Column, Selectivity: st.Selectivity})
	for _, c := range st.ExtraPredicateColumns {
		preds = append(preds, Pred{Column: c, Selectivity: st.Selectivity})
	}
	var root Node = &FilterNode{
		Input:    &ScanNode{Table: st.Table, Parallel: st.Parallel},
		Preds:    preds,
		UseIndex: st.UseIndex,
	}
	if st.Aggregate {
		root = &AggregateNode{
			Input:          root,
			BytesPerRow:    st.AggBytesPerRow,
			CyclesPerRow:   st.AggCyclesPerRow,
			ProjectColumns: st.ProjectColumns,
			Parallel:       st.Parallel,
		}
	} else {
		root = &MaterializeNode{
			Input:          root,
			ProjectColumns: st.ProjectColumns,
			Parallel:       st.Parallel,
		}
	}
	return &Logical{Root: root}
}

// StarDim is one dimension of a star statement: a range predicate filters
// the dimension, the surviving keys build a hash table, and the fact
// foreign-key column probes it.
type StarDim struct {
	Dim       *colstore.Table
	Predicate string
	Key       string
	// FactFK is the fact table's foreign-key column probing this dimension.
	FactFK      string
	Selectivity float64
	// HitsPerProbeRow is the join cardinality per fact row against the
	// unfiltered dimension (the predicate scales it down).
	HitsPerProbeRow float64
}

// StarStatement describes a composed scan -> join -> aggregate statement
// over a star schema, generalized to several dimensions (the join-order pass
// sequences them by estimated filtered build size).
type StarStatement struct {
	Fact *colstore.Table
	Dims []StarDim
	// AggBytesPerRow / AggCyclesPerRow cost the measure aggregation per
	// matching row.
	AggBytesPerRow  float64
	AggCyclesPerRow float64
	// HTSockets places every join's hash table (empty defaults per join).
	HTSockets []int
}

// BuildStar builds the logical star-join plan: joins nest left-deep over the
// fact scan in the written dimension order, with each dimension's predicate
// on a FilterNode above its scan, and the aggregation on top.
func BuildStar(st StarStatement) *Logical {
	var probe Node = &ScanNode{Table: st.Fact, Parallel: true}
	for _, d := range st.Dims {
		probe = &JoinNode{
			Build: &FilterNode{
				Input: &ScanNode{Table: d.Dim, Parallel: true},
				Preds: []Pred{{Column: d.Predicate, Selectivity: d.Selectivity}},
			},
			Probe:           probe,
			BuildKey:        d.Key,
			ProbeKey:        d.FactFK,
			HitsPerProbeRow: d.HitsPerProbeRow,
			HTSockets:       st.HTSockets,
		}
	}
	return &Logical{Root: &AggregateNode{
		Input:        probe,
		BytesPerRow:  st.AggBytesPerRow,
		CyclesPerRow: st.AggCyclesPerRow,
		Parallel:     true,
	}}
}

// predsLabel renders a predicate list for EXPLAIN, e.g. [D_DATE~0.05].
func predsLabel(preds []Pred) string {
	s := "["
	for i, p := range preds {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s~%g", p.Column, p.Selectivity)
	}
	return s + "]"
}
