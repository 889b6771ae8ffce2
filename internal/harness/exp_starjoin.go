package harness

import (
	"strings"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
	"numacs/internal/plan"
)

// starSchema builds the starjoin experiment's dimension and fact tables for
// a fact table of the given rows, IVP-placed across the four sockets, and
// the experiment's single-dimension star statement over them.
func starSchema(e *core.Engine, factRows int) join.StarSpec {
	dim := colstore.NewTable("DIM", []*colstore.Column{
		colstore.NewSynthetic("D_DATE", factRows/4, 1<<12, false),
		colstore.NewSynthetic("D_ID", factRows/4, 1<<14, false),
	})
	fact := colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK", factRows, 1<<14, false),
	})
	sockets := []int{0, 1, 2, 3}
	for _, c := range dim.Parts[0].Columns {
		e.Placer.PlaceIVP(c, sockets)
	}
	e.Placer.PlaceIVP(fact.Parts[0].Columns[0], sockets)
	return join.StarSpec{
		Dim: dim, DimPredicate: "D_DATE", DimKey: "D_ID",
		Fact: fact, FactFK: "F_FK",
		Selectivity: 0.05, HitsPerProbeRow: 1,
		AggBytesPerRow: 12, AggCyclesPerRow: 24,
		HTSockets: []int{0},
	}
}

// starJoinSpec is one starjoin cell: 32 closed-loop clients issuing the star
// statement under a strategy, with the hash table centralized on socket 0
// or partitioned across all sockets.
func starJoinSpec(s Scale, htPartitioned bool, st core.Strategy) Spec {
	return Spec{
		Machine: FourSocket, Strategy: st,
		Warmup: s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1,
		Setup: func(e *core.Engine, _ *colstore.Table) {
			star := starSchema(e, s.Rows)
			if htPartitioned {
				star.HTSockets = []int{0, 1, 2, 3}
			}
			star.Strategy = st
			var issue func(client int)
			issue = func(client int) {
				stmt := star
				stmt.HomeSocket = client % e.Machine.Sockets
				stmt.OnDone = func(float64) { issue(client) }
				join.ExecuteStar(e, stmt)
			}
			for i := 0; i < 32; i++ {
				issue(i)
			}
		},
	}
}

// runStarJoin exercises the composed scan -> join -> aggregate statement the
// operator-pipeline layer enables (Section 8 direction): a closed-loop
// population of star-join statements — dimension predicate scan, hash-table
// build from the qualifying keys, fact foreign-key probe, measure
// aggregation — on the 4-socket machine, across the three scheduling
// strategies and the two hash-table placements. None of the pre-pipeline
// execution paths (scan state machine, private join fan-out, aggregation
// clients) could express this statement.
func runStarJoin(s Scale) *Report {
	rep := &Report{ID: "starjoin", Title: "Composed star-join statements (scan -> join -> aggregate)",
		Description: "Closed-loop star-join statements on the 4-socket machine: the dimension predicate scan feeds the hash-table build, the fact FK probes it, and matching measures are aggregated — one scheduled statement per client."}

	tb := rep.AddTable("", []string{"hash table", "strategy", "TP(stmt/min)", "per-socket memTP (GiB/s)"})
	for _, htPartitioned := range []bool{false, true} {
		name := "centralized (one socket)"
		if htPartitioned {
			name = "partitioned (all sockets)"
		}
		for _, st := range []core.Strategy{core.OSched, core.Target, core.Bound} {
			r := Run(starJoinSpec(s, htPartitioned, st))
			tb.AddRow(name, st.String(), f0(r.QPM), fmtSockets(r.MemTP))
		}
	}
	return rep
}

// explainStarJoin renders the starjoin experiment's statement through the
// planner: the single-dimension shape whose lowering is pinned
// counter-identical to the hand-wired pipeline.
func explainStarJoin() string {
	var star join.StarSpec
	e := build(Spec{Machine: FourSocket, Setup: func(e *core.Engine, _ *colstore.Table) {
		star = starSchema(e, explainFixtureRows)
	}}).E
	l := star.Plan()
	var b strings.Builder
	b.WriteString(l.Explain())
	b.WriteString(plan.Optimize(l, plan.Collect(star.Dim, star.Fact), &e.Costs).Explain())
	return b.String()
}
