package numacs_test

import (
	"testing"

	"numacs"
)

// TestPublicAPIEndToEnd exercises the documented quickstart flow through the
// facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	machine := numacs.FourSocketIvyBridge()
	engine := numacs.NewEngine(machine, 1)
	table := numacs.GenerateDataset(numacs.DatasetConfig{
		Rows: 50_000, Columns: 8, BitcaseMin: 12, BitcaseMax: 16, Seed: 1, Synthetic: true,
	})
	engine.Placer.PlaceRR(table)
	clients := numacs.NewClients(engine, table, numacs.ClientsConfig{
		N: 32, Selectivity: 0.0001, Parallel: true, Strategy: numacs.Bound, Seed: 2,
	})
	clients.Start()
	engine.Sim.Run(0.1)
	if engine.Counters.QueriesDone == 0 {
		t.Fatal("no queries completed via the public API")
	}
	if engine.Counters.ThroughputQPM(0.1) <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestPublicColumnStore(t *testing.T) {
	col := numacs.BuildColumn("x", []int64{5, 1, 5, 3, 1}, true)
	lo, hi, ok := col.EncodePredicate(1, 3)
	if !ok {
		t.Fatal("predicate should qualify")
	}
	pos := col.ScanPositions(lo, hi, 0, col.Rows, nil)
	if len(pos) != 3 {
		t.Fatalf("matches = %d, want 3 (values 1,3,1)", len(pos))
	}
	idx := col.IndexLookupPositions(lo, hi, nil)
	if len(idx) != 3 {
		t.Fatalf("index matches = %d", len(idx))
	}
	tbl := numacs.NewTable("t", []*numacs.Column{col})
	if tbl.Rows != 5 {
		t.Fatalf("table rows = %d", tbl.Rows)
	}
}

func TestPublicPSM(t *testing.T) {
	machine := numacs.FourSocketIvyBridge()
	engine := numacs.NewEngine(machine, 1)
	alloc := engine.Placer.Alloc
	r := alloc.Alloc(8*numacs.PageSize, numacs.OnSocket(2))
	p := numacs.BuildPSM(alloc, r)
	if p.MajoritySocket() != 2 {
		t.Fatalf("majority socket = %d", p.MajoritySocket())
	}
	alloc.MovePages(r.Subrange(0, 4*numacs.PageSize), 1)
	q := numacs.BuildPSM(alloc, r)
	if got := q.Summary(); got[1] != 4 || got[2] != 4 {
		t.Fatalf("summary after move = %v", got)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	exps := numacs.Experiments()
	if len(exps) < 18 {
		t.Fatalf("experiments = %d, want >= 18 (every paper table and figure)", len(exps))
	}
	if _, ok := numacs.ExperimentByID("fig8"); !ok {
		t.Fatal("fig8 missing")
	}
	if _, ok := numacs.ExperimentByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if numacs.QuickScale().Rows >= numacs.FullScale().Rows {
		t.Fatal("quick scale should be smaller than full")
	}
}

func TestPublicAdaptivePlacer(t *testing.T) {
	machine := numacs.FourSocketIvyBridge()
	engine := numacs.NewEngine(machine, 1)
	table := numacs.GenerateDataset(numacs.DatasetConfig{
		Rows: 40_000, Columns: 8, BitcaseMin: 12, BitcaseMax: 16, Seed: 1, Synthetic: true,
	})
	engine.Placer.PlaceRRBlocks(table)
	placer := numacs.NewAdaptivePlacer(engine, &numacs.Catalog{
		Tables: []*numacs.Table{table},
	}, numacs.DefaultAdaptiveConfig())
	engine.Sim.AddActor(placer)
	clients := numacs.NewClients(engine, table, numacs.ClientsConfig{
		N: 128, Selectivity: 0.0001, Parallel: true, Strategy: numacs.Bound,
		Chooser: numacs.SkewedChoice{HotProb: 0.8}, Seed: 2,
	})
	clients.Start()
	engine.Sim.Run(0.2)
	if len(placer.Actions) == 0 {
		t.Fatal("adaptive placer idle on a skewed workload")
	}
}

func TestPublicAggregates(t *testing.T) {
	machine := numacs.SixteenSocketIvyBridge()
	engine := numacs.NewEngineWithStep(machine, 1, 100e-6)
	table := numacs.Q1Table(50_000, 1)
	pp := engine.Placer.PlacePP(table, 4)
	clients := numacs.NewQ1Clients(engine, pp, 8, numacs.Target, 7)
	clients.Start()
	engine.Sim.Run(0.1)
	if engine.Counters.QueriesDone == 0 {
		t.Fatal("no Q1 queries completed")
	}

	cubes := numacs.BWEMLCubes(30_000, 1)
	if len(cubes) != 3 {
		t.Fatalf("cubes = %d", len(cubes))
	}
}

func TestPublicHashJoin(t *testing.T) {
	build := numacs.BuildColumn("dim", []int64{1, 2, 3}, false)
	probe := numacs.BuildColumn("fact", []int64{2, 2, 9}, false)
	pairs := numacs.HashJoin(build, probe)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	engine := numacs.NewEngine(numacs.FourSocketIvyBridge(), 1)
	dim := numacs.NewTable("DIM", []*numacs.Column{
		numacs.BuildColumn("D_DATE", []int64{5, 6, 7}, false), build,
	})
	fact := numacs.NewTable("FACT", []*numacs.Column{probe})
	for _, c := range dim.Parts[0].Columns {
		engine.Placer.PlaceIVP(c, []int{0, 1})
	}
	engine.Placer.PlaceIVP(probe, []int{2, 3})
	done := false
	numacs.ExecuteStarJoin(engine, numacs.StarJoinSpec{
		Dim: dim, DimPredicate: "D_DATE", DimKey: "dim",
		Fact: fact, FactFK: "fact",
		Selectivity: 1, HitsPerProbeRow: 1, AggBytesPerRow: 8, AggCyclesPerRow: 8,
		Strategy: numacs.Bound, OnDone: func(float64) { done = true },
	})
	engine.Sim.Run(0.05)
	if !done {
		t.Fatal("simulated join did not complete")
	}
}
