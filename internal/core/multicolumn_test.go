package core

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/topology"
)

// Section 6 of the paper: a predicate on multiple columns repeats the find
// phase (in parallel) per column; projecting multiple columns repeats the
// materialization phase per column.

func TestExtraPredicateColumnsScanBothIVs(t *testing.T) {
	run := func(extra []string) float64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		tbl := buildPlacedTable(e, 4, 40000, false)
		done := false
		e.Submit(&Query{
			Table: tbl, Column: "COLA", ExtraPredicateColumns: extra,
			Selectivity: 0.001, Parallel: true, Strategy: Bound, HomeSocket: 0,
			OnDone: func(float64) { done = true },
		})
		e.Sim.Run(0.5)
		if !done {
			t.Fatal("query did not complete")
		}
		return e.Counters.TotalMCBytes()
	}
	single := run(nil)
	double := run([]string{"COLB"})
	if double < single*1.7 {
		t.Fatalf("two predicate columns should roughly double scan traffic: %v vs %v", single, double)
	}
}

func TestExtraPredicateIntersectsMatches(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 40000, false)
	traffic := recordItemTraffic(e)
	done := false
	// sel 0.05 on two columns -> intersection ~ 0.0025: materialization
	// accesses should reflect the intersection (tiny), not the union.
	e.Submit(&Query{
		Table: tbl, Column: "COLA", ExtraPredicateColumns: []string{"COLB"},
		Selectivity: 0.05, Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("query did not complete")
	}
	it := traffic[tbl.Parts[0].ColumnByName("COLA")]
	if it == nil {
		t.Fatal("no traffic recorded")
	}
	// Dict traffic proportional to intersection (~100 rows), far below the
	// single-predicate match count (~2000 rows).
	expected := 40000 * 0.05 * 0.05 // ~100
	if it.DictBytes > expected*64*5 {
		t.Fatalf("materialization did not intersect: dict bytes %v", it.DictBytes)
	}
}

func TestProjectColumnsRepeatMaterialization(t *testing.T) {
	run := func(project []string) uint64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		tbl := buildPlacedTable(e, 4, 40000, false)
		done := false
		e.Submit(&Query{
			Table: tbl, Column: "COLA", ProjectColumns: project,
			Selectivity: 0.01, Parallel: false, Strategy: Bound, HomeSocket: 0,
			OnDone: func(float64) { done = true },
		})
		e.Sim.Run(0.5)
		if !done {
			t.Fatal("query did not complete")
		}
		return e.Counters.TasksExecuted
	}
	// Non-parallel: 1 scan + 1 materialization per materialized column.
	if got := run(nil); got != 2 {
		t.Fatalf("single column: %d tasks, want 2", got)
	}
	if got := run([]string{"COLB", "COLC"}); got != 4 {
		t.Fatalf("projecting two extra columns: %d tasks, want 4 (scan + 3 mats)", got)
	}
}

func TestProjectColumnsTouchTheirDictionaries(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 40000, false)
	traffic := recordItemTraffic(e)
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", ProjectColumns: []string{"COLD"},
		Selectivity: 0.01, Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("query did not complete")
	}
	if it := traffic[tbl.Parts[0].ColumnByName("COLD")]; it == nil || it.DictBytes <= 0 {
		t.Fatalf("projected column's dictionary untouched: %+v", it)
	}
}

func TestMultiColumnOnPPTable(t *testing.T) {
	e2 := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e2, 3, 40000, false)
	pp := e2.Placer.PlacePP(tbl, 4)
	done := false
	e2.Submit(&Query{
		Table: pp, Column: "COLA",
		ExtraPredicateColumns: []string{"COLB"},
		ProjectColumns:        []string{"COLC"},
		Selectivity:           0.05, Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e2.Sim.Run(0.5)
	if !done {
		t.Fatal("multi-column PP query did not complete")
	}
}

// Replication: the Section 4.2 "other data placement" — replicas trade
// memory for local scans on several sockets.

func TestReplicatedColumnScansLocally(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	c := colstore.Build("HOT", testColumnVals(80000, 1<<14, 3), false)
	tbl := colstore.NewTable("TBL", []*colstore.Column{c})
	e.Placer.PlaceReplicated(c, []int{0, 1, 2, 3})
	if !c.Replicated() {
		t.Fatal("column should be replicated")
	}
	for i := 0; i < 64; i++ {
		e.Submit(&Query{
			Table: tbl, Column: "HOT", Selectivity: 0.0001,
			Parallel: true, Strategy: Bound, HomeSocket: i % 4,
			OnDone: func(float64) {},
		})
	}
	e.Sim.Run(0.2)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no queries completed")
	}
	// All four sockets serve their replica; traffic stays local.
	for s := 0; s < 4; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("replica socket %d idle", s)
		}
	}
	remote := 0.0
	for s := 0; s < 4; s++ {
		remote += e.Counters.RemoteBytes[s]
	}
	if remote > 0 {
		t.Fatalf("replicated Bound scans produced %v remote bytes", remote)
	}
}

func TestReplicationConsumesMemory(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	c := colstore.Build("HOT", testColumnVals(50000, 1<<14, 3), false)
	before := int64(0)
	for s := 0; s < 4; s++ {
		before += e.Placer.Alloc.BytesOnSocket(s)
	}
	e.Placer.PlaceReplicated(c, []int{0, 1, 2, 3})
	after := int64(0)
	for s := 0; s < 4; s++ {
		after += e.Placer.Alloc.BytesOnSocket(s)
	}
	single := c.IVBytes() + c.DictBytes()
	if after-before < 4*single {
		t.Fatalf("4 replicas should consume >= 4x a single copy: delta %d, single %d", after-before, single)
	}
}
