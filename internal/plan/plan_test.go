package plan

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/memsim"
)

// testSchema builds the unplaced fixture tables the planning tests use
// (planning and statistics need only metadata, not placement).
func testSchema() (hot, dim1, dim2, fact *colstore.Table) {
	hot = colstore.NewTable("HOT", []*colstore.Column{
		colstore.NewSynthetic("H_VAL", 60_000, 1<<14, false),
	})
	dim1 = colstore.NewTable("DIM1", []*colstore.Column{
		colstore.NewSynthetic("D1_DATE", 15_000, 1<<12, false),
		colstore.NewSynthetic("D1_ID", 15_000, 1<<14, false),
	})
	dim2 = colstore.NewTable("DIM2", []*colstore.Column{
		colstore.NewSynthetic("D2_REGION", 3_750, 1<<10, false),
		colstore.NewSynthetic("D2_ID", 3_750, 1<<12, false),
	})
	fact = colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK1", 60_000, 1<<14, false),
		colstore.NewSynthetic("F_FK2", 60_000, 1<<12, false),
	})
	return
}

// star2 returns the two-dimension star statement and its dimensions, the
// large dimension written first (so BuildStar nests the small one outermost
// and the join-order pass has something to fix).
func star2(dim1, dim2, fact *colstore.Table) (StarStatement, []StarDim) {
	return StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24, HTSockets: []int{0}},
		[]StarDim{
			{Dim: dim1, Predicate: "D1_DATE", Key: "D1_ID", FactFK: "F_FK1",
				Selectivity: 0.05, HitsPerProbeRow: 1},
			{Dim: dim2, Predicate: "D2_REGION", Key: "D2_ID", FactFK: "F_FK2",
				Selectivity: 0.1, HitsPerProbeRow: 2},
		}
}

// buildStar2 builds star2's plan.
func buildStar2(dim1, dim2, fact *colstore.Table) *Logical {
	st, dims := star2(dim1, dim2, fact)
	return BuildStar(st, dims...)
}

// TestPushdownFoldsPredicates: the pushdown pass folds the filter into the
// scan — primary predicate first, extras in written order, index permission
// carried along.
func TestPushdownFoldsPredicates(t *testing.T) {
	hot, _, _, _ := testSchema()
	p := Optimize(BuildQuery(Statement{
		Table: hot, Column: "H_VAL", Selectivity: 0.01,
		ExtraPredicateColumns: []string{"H_VAL"}, // self-join-style second predicate
		UseIndex:              true, Parallel: true,
	}), nil, nil)
	sc := p.Scan
	if sc == nil {
		t.Fatal("no physical scan")
	}
	if sc.Selectivity != 0.01 || !sc.UseIndex || !sc.Parallel {
		t.Fatalf("scan fields wrong: %+v", sc)
	}
	if !reflect.DeepEqual(sc.Cols, exec.ResolveColumns(hot, "H_VAL", "H_VAL")) {
		t.Fatalf("predicate columns wrong: %v", sc.Cols)
	}
	root, ok := p.Root.(*MaterializeNode)
	if !ok {
		t.Fatalf("root is %T, want materialize", p.Root)
	}
	if _, ok := root.Input.(*ScanNode); !ok {
		t.Fatalf("filter not folded: input is %T", root.Input)
	}
}

// TestShareableRule pins the cohort-feeding rule: parallel, index-free,
// single-predicate, single-part — the same statements core routed to the
// registry before the planner existed.
func TestShareableRule(t *testing.T) {
	hot, _, _, _ := testSchema()
	base := Statement{Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true}

	if p := Optimize(BuildQuery(base), nil, nil); !p.Shareable || p.ShareKey != "HOT.H_VAL" {
		t.Fatalf("base statement not shareable: %+v", p)
	}
	cases := map[string]Statement{
		"index":      {Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true, UseIndex: true},
		"serial":     {Table: hot, Column: "H_VAL", Selectivity: 1e-5},
		"multi-pred": {Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true, ExtraPredicateColumns: []string{"H_VAL"}},
	}
	for name, st := range cases {
		if p := Optimize(BuildQuery(st), nil, nil); p.Shareable {
			t.Errorf("%s statement marked shareable", name)
		}
	}
	multi := colstore.NewTable("PP", []*colstore.Column{
		colstore.NewSynthetic("C", 1000, 1<<8, false),
	})
	multi.Parts = append(multi.Parts, multi.Parts[0])
	if p := Optimize(BuildQuery(Statement{Table: multi, Column: "C", Selectivity: 1e-5, Parallel: true}), nil, nil); p.Shareable {
		t.Error("multi-part statement marked shareable")
	}
}

// TestBuildSideEmptyStats: with no statistics the build-side pass keeps the
// written sides and the effective hit rate is the written float, exactly.
func TestBuildSideEmptyStats(t *testing.T) {
	_, dim1, _, fact := testSchema()
	st := StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24}
	p := Optimize(BuildStar(st, StarDim{Dim: dim1, Predicate: "D1_DATE", Key: "D1_ID", FactFK: "F_FK1",
		Selectivity: 0.05, HitsPerProbeRow: 1}), nil, nil)
	if len(p.Joins) != 1 {
		t.Fatalf("want 1 join, got %d", len(p.Joins))
	}
	j := p.Joins[0]
	if j.Swapped {
		t.Error("swapped without stats")
	}
	if j.EffHits != 1 {
		t.Errorf("EffHits %v != written 1 (bit-identity contract)", j.EffHits)
	}
}

// TestBuildSideSwap: when the probe side's estimate is smaller than the
// filtered build side's, the pass swaps — and the folded effective hit rate
// preserves the estimated match count exactly.
func TestBuildSideSwap(t *testing.T) {
	// A huge, barely-filtered dimension against a small fact.
	dim := colstore.NewTable("BIGDIM", []*colstore.Column{
		colstore.NewSynthetic("B_PRED", 200_000, 1<<12, false),
		colstore.NewSynthetic("B_ID", 200_000, 1<<14, false),
	})
	fact := colstore.NewTable("SMALLFACT", []*colstore.Column{
		colstore.NewSynthetic("S_FK", 10_000, 1<<14, false),
	})
	st := StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24}
	stats := Collect(dim, fact)
	p := Optimize(BuildStar(st, StarDim{Dim: dim, Predicate: "B_PRED", Key: "B_ID", FactFK: "S_FK",
		Selectivity: 0.5, HitsPerProbeRow: 1}), stats, nil)
	j := p.Joins[0]
	if !j.Swapped {
		t.Fatalf("build side not swapped: est build %v", j.EstBuildRows)
	}
	// Estimated matches, written: factRows x sel x hits. Swapped lowering:
	// dimRows probe rows x EffHits. They must agree exactly.
	written := 10_000.0 * 0.5 * 1
	swapped := 200_000.0 * j.EffHits
	if math.Abs(written-swapped) > 1e-9*written {
		t.Errorf("swap changed estimated matches: written %v, swapped %v", written, swapped)
	}
}

// TestJoinOrderReorders: with statistics, the two-dimension chain lowers
// smallest-estimate first; without, the written order is kept. Either way the
// folded (selectivity x hits) product — the estimated result size — is
// order-invariant.
func TestJoinOrderReorders(t *testing.T) {
	_, dim1, dim2, fact := testSchema()
	withStats := Optimize(buildStar2(dim1, dim2, fact), Collect(dim1, dim2, fact), nil)
	if len(withStats.Joins) != 2 {
		t.Fatalf("want 2 joins, got %d", len(withStats.Joins))
	}
	// DIM2 est 375 < DIM1 est 750: DIM2 must build first in lowered order.
	if withStats.Joins[0].BuildTable.Name != "DIM2" || withStats.Joins[1].BuildTable.Name != "DIM1" {
		t.Errorf("lowered order %s, %s; want DIM2 first",
			withStats.Joins[0].BuildTable.Name, withStats.Joins[1].BuildTable.Name)
	}

	noStats := Optimize(buildStar2(dim1, dim2, fact), nil, nil)
	if noStats.Joins[0].BuildTable.Name != "DIM1" || noStats.Joins[1].BuildTable.Name != "DIM2" {
		t.Errorf("stat-less order %s, %s; want written order DIM1 first",
			noStats.Joins[0].BuildTable.Name, noStats.Joins[1].BuildTable.Name)
	}

	product := func(p *Physical) float64 {
		out := 1.0
		for _, j := range p.Joins {
			out *= j.HitsPerProbeRow * j.BuildScan.Selectivity
		}
		return out
	}
	if a, b := product(withStats), product(noStats); math.Abs(a-b) > 1e-12*math.Abs(a) {
		t.Errorf("join order changed the folded result product: %v vs %v", a, b)
	}
}

// TestAllReplicatedStats: fully replicated columns leave every estimate (and
// therefore every rewrite decision) unchanged — replication is a placement
// fact, not a cardinality.
func TestAllReplicatedStats(t *testing.T) {
	_, dim1, dim2, fact := testSchema()
	for _, tb := range []*colstore.Table{dim1, dim2, fact} {
		for _, c := range tb.Parts[0].Columns {
			c.ReplicaSockets = []int{0, 1, 2, 3}
		}
	}
	p := Optimize(buildStar2(dim1, dim2, fact), Collect(dim1, dim2, fact), nil)
	if p.Joins[0].BuildTable.Name != "DIM2" {
		t.Errorf("replication changed the join order: %s first", p.Joins[0].BuildTable.Name)
	}
	if p.Joins[0].Swapped || p.Joins[1].Swapped {
		t.Error("replication changed the build side")
	}
}

// TestLowerPlainMatchesHandWired pins the plain-statement lowering contract
// at the struct level: for an aggregating and a materializing statement, and
// a projecting one over a two-part table, the emitted operators equal the
// hand-wired ScanOp + output-operator composition field for field, with the
// predicate columns resolved per part and the projection resolved part by
// part, in name order.
func TestLowerPlainMatchesHandWired(t *testing.T) {
	hot, _, _, _ := testSchema()
	hotScan := &exec.ScanOp{Table: hot, Selectivity: 1e-5, Parallel: true,
		Cols: exec.ResolveColumns(hot, "H_VAL")}
	two := colstore.NewTable("TWO", []*colstore.Column{
		colstore.NewSynthetic("T_A", 2_000, 1<<8, false),
		colstore.NewSynthetic("T_B", 2_000, 1<<8, false),
		colstore.NewSynthetic("T_C", 2_000, 1<<8, false),
	}).PhysicallyPartition(2)
	p0, p1 := two.Parts[0], two.Parts[1]
	twoScan := &exec.ScanOp{Table: two, Selectivity: 1e-3, Parallel: true,
		Cols: []*colstore.Column{p0.ColumnByName("T_A"), p1.ColumnByName("T_A")}}
	for _, tc := range []struct {
		name string
		st   Statement
		scan *exec.ScanOp
		out  exec.Operator
	}{
		{"aggregate", Statement{
			Table: hot, Column: "H_VAL", Selectivity: 1e-5,
			ProjectColumns: []string{"H_VAL"}, Parallel: true,
			Aggregate: true, AggBytesPerRow: 8, AggCyclesPerRow: 4,
		}, hotScan, &exec.AggregateOp{
			Source: hotScan, BytesPerRow: 8, CyclesPerRow: 4,
			Project: [][]*colstore.Column{{hot.Column("H_VAL")}}, Parallel: true, DisableCoalesce: true,
		}},
		{"materialize", Statement{
			Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true,
		}, hotScan, &exec.MaterializeOp{Scan: hotScan, Parallel: true, DisableCoalesce: true}},
		{"two-part projection", Statement{
			Table: two, Column: "T_A", Selectivity: 1e-3,
			ProjectColumns: []string{"T_C", "T_B"}, Parallel: true,
		}, twoScan, &exec.MaterializeOp{Scan: twoScan, Project: [][]*colstore.Column{
			{p0.ColumnByName("T_C"), p0.ColumnByName("T_B")},
			{p1.ColumnByName("T_C"), p1.ColumnByName("T_B")},
		}, Parallel: true, DisableCoalesce: true}},
	} {
		low := Optimize(BuildQuery(tc.st), nil, nil).Lower(Deps{DisableCoalesce: true})
		want := []exec.Operator{tc.scan, tc.out}
		if !reflect.DeepEqual(low, want) {
			t.Errorf("%s: lowered ops drifted:\n got  %+v\n want %+v", tc.name, low, want)
		}
	}
}

// TestLowerStarMatchesHandWired pins the single-dimension star lowering
// contract at the struct level: all four operators — dimension scan, join
// build, join probe, aggregation — equal the hand wiring the star statement
// used before the planner, field for field, including the JoinOp behind the
// build and probe phases.
func TestLowerStarMatchesHandWired(t *testing.T) {
	_, dim1, _, fact := testSchema()
	st := StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24, HTSockets: []int{0}}
	alloc := memsim.NewAllocator(4)
	low := Optimize(BuildStar(st, StarDim{Dim: dim1, Predicate: "D1_DATE", Key: "D1_ID", FactFK: "F_FK1",
		Selectivity: 0.05, HitsPerProbeRow: 1}), Collect(dim1, fact), nil).Lower(Deps{Alloc: alloc})

	scan := &exec.ScanOp{Table: dim1, Selectivity: 0.05, Parallel: true,
		Cols: exec.ResolveColumns(dim1, "D1_DATE")}
	j := &exec.JoinOp{
		Build: dim1.Column("D1_ID"), Probe: fact.Column("F_FK1"),
		HTSockets: []int{0}, HitsPerProbeRow: 1, Alloc: alloc, BuildSource: scan,
	}
	agg := &exec.AggregateOp{Source: j, BytesPerRow: 12, CyclesPerRow: 24, Parallel: true}
	want := []exec.Operator{scan, j.BuildOp(), j.ProbeOp(), agg}
	if !reflect.DeepEqual(low, want) {
		t.Errorf("lowered star drifted:\n got  %+v\n want %+v", low, want)
	}
}

// TestLowerStarHonoursDisableCoalesce: the coalescing ablation reaches a
// star's aggregate as it reaches a join-free plan's output operator, and
// only the ablation sets it.
func TestLowerStarHonoursDisableCoalesce(t *testing.T) {
	_, dim1, _, fact := testSchema()
	phys := Optimize(BuildStar(StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24},
		StarDim{Dim: dim1, Predicate: "D1_DATE", Key: "D1_ID", FactFK: "F_FK1",
			Selectivity: 0.05, HitsPerProbeRow: 1}), Collect(dim1, fact), nil)
	for _, disable := range []bool{false, true} {
		low := phys.Lower(Deps{Alloc: memsim.NewAllocator(4), DisableCoalesce: disable})
		agg, ok := low[len(low)-1].(*exec.AggregateOp)
		if !ok {
			t.Fatalf("a star lowers to %T last, want *exec.AggregateOp", low[len(low)-1])
		}
		if agg.DisableCoalesce != disable {
			t.Errorf("Deps.DisableCoalesce %v lowered a star aggregate with DisableCoalesce %v", disable, agg.DisableCoalesce)
		}
	}
}

// TestOptimizeIsNoOpForPlainStatements: the full pass pipeline and the empty
// pass list lower random plain statements to identical operator structs —
// pushdown is a pure representation change on this shape.
func TestOptimizeIsNoOpForPlainStatements(t *testing.T) {
	hot, _, _, _ := testSchema()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		st := Statement{
			Table: hot, Column: "H_VAL",
			Selectivity: math.Pow(10, -1-4*rng.Float64()),
			Parallel:    rng.Intn(2) == 0,
			UseIndex:    rng.Intn(2) == 0,
			Aggregate:   rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			st.ExtraPredicateColumns = []string{"H_VAL"}
		}
		if st.Aggregate {
			st.AggBytesPerRow = float64(1 + rng.Intn(16))
			st.AggCyclesPerRow = float64(1 + rng.Intn(32))
		}
		deps := Deps{DisableCoalesce: rng.Intn(2) == 0}
		optPhys := Optimize(BuildQuery(st), nil, nil)
		rawPhys := OptimizeWith(BuildQuery(st), nil, nil, nil)
		opt, raw := optPhys.Lower(deps), rawPhys.Lower(deps)
		if !reflect.DeepEqual(opt[0], raw[0]) {
			t.Fatalf("statement %d: optimized scan drifted from unoptimized:\n opt %+v\n raw %+v",
				i, opt[0], raw[0])
		}
		if !reflect.DeepEqual(opt[1], raw[1]) {
			t.Fatalf("statement %d: optimized output drifted from unoptimized", i)
		}
		if optPhys.Shareable != rawPhys.Shareable || optPhys.ShareKey != rawPhys.ShareKey {
			t.Fatalf("statement %d: cohort metadata drifted", i)
		}
	}
}

// TestRewritesPreserveEstimatedResult: on random two-dimension stars, the
// optimized plan's estimated result multiset size equals the written plan's —
// the rewrite passes (build-side swap, join order) change execution shape,
// never the answer. The estimated result size of a star is
// factRows x prod_k(sel_k x hits_k); per lowered join the probe-side row
// count times EffHits must reproduce the written matches regardless of swap
// or position.
func TestRewritesPreserveEstimatedResult(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		d1Rows := 1_000 + rng.Intn(200_000)
		d2Rows := 1_000 + rng.Intn(200_000)
		fRows := 1_000 + rng.Intn(200_000)
		dim1 := colstore.NewTable("DIM1", []*colstore.Column{
			colstore.NewSynthetic("D1_DATE", d1Rows, 1<<12, false),
			colstore.NewSynthetic("D1_ID", d1Rows, 1<<14, false),
		})
		dim2 := colstore.NewTable("DIM2", []*colstore.Column{
			colstore.NewSynthetic("D2_REGION", d2Rows, 1<<10, false),
			colstore.NewSynthetic("D2_ID", d2Rows, 1<<12, false),
		})
		fact := colstore.NewTable("FACT", []*colstore.Column{
			colstore.NewSynthetic("F_FK1", fRows, 1<<14, false),
			colstore.NewSynthetic("F_FK2", fRows, 1<<12, false),
		})
		st, dims := star2(dim1, dim2, fact)
		dims[0].Selectivity = 0.01 + 0.5*rng.Float64()
		dims[1].Selectivity = 0.01 + 0.5*rng.Float64()
		dims[0].HitsPerProbeRow = float64(1 + rng.Intn(3))
		dims[1].HitsPerProbeRow = float64(1 + rng.Intn(3))

		stats := Collect(dim1, dim2, fact)
		written := OptimizeWith(BuildStar(st, dims...), stats, nil, nil)
		opt := Optimize(BuildStar(st, dims...), stats, nil)

		// The aggregate consumes the LAST lowered join's matches; re-derive
		// that stage's analytic match count from the physical fields alone,
		// mirroring exec.JoinOp's probe model: probe rows x effective hits x
		// build fraction (the build-side scan's selectivity; 1 when swapped,
		// since a swapped build inserts every fact row).
		matches := func(p *Physical) float64 {
			j := p.Joins[len(p.Joins)-1]
			if j.Swapped {
				cs, _ := stats.Lookup(j.BuildTable, j.BuildKey.Name)
				return float64(cs.Rows) * j.EffHits
			}
			return float64(fRows) * j.EffHits * j.BuildScan.Selectivity
		}
		// The ground truth both plans must reproduce.
		want := float64(fRows) *
			dims[0].Selectivity * dims[0].HitsPerProbeRow *
			dims[1].Selectivity * dims[1].HitsPerProbeRow
		w, o := matches(written), matches(opt)
		if math.Abs(w-want) > 1e-6*want || math.Abs(o-want) > 1e-6*want {
			t.Fatalf("case %d (d1 %d, d2 %d, f %d): estimated result drifted: want %v, written %v, optimized %v\n opt joins: %+v %+v",
				i, d1Rows, d2Rows, fRows, want, w, o, opt.Joins[0], opt.Joins[1])
		}
	}
}

// TestExplainStable: rendering is deterministic and mentions the plan-level
// landmarks the golden gate relies on.
func TestExplainStable(t *testing.T) {
	hot, dim1, dim2, fact := testSchema()
	l := BuildQuery(Statement{Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true})
	p := Optimize(l, Collect(hot), nil)
	a, b := l.Explain()+p.Explain(), l.Explain()+p.Explain()
	if a != b {
		t.Fatal("explain output is not deterministic")
	}
	for _, want := range []string{"logical:", "physical:", "shareable: yes (cohort key HOT.H_VAL)", "notes:"} {
		if !strings.Contains(a, want) {
			t.Errorf("explain output missing %q:\n%s", want, a)
		}
	}
	sp := Optimize(buildStar2(dim1, dim2, fact), Collect(dim1, dim2, fact), nil)
	out := sp.Explain()
	for _, want := range []string{"join[0]: build DIM2.D2_ID", "join[1]: build DIM1.D1_ID", "join-order:"} {
		if !strings.Contains(out, want) {
			t.Errorf("star explain missing %q:\n%s", want, out)
		}
	}
}
