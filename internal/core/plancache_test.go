package core

import (
	"math/rand"
	"reflect"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/topology"
)

// freshPlan plans q the uncached way — Build -> Optimize -> Lower — for the
// plan-cache oracle.
func freshPlan(e *Engine, q *Query) (*plan.Physical, []exec.Operator) {
	phys := plan.Optimize(plan.BuildQuery(plan.Statement{
		Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
		ExtraPredicateColumns: q.ExtraPredicateColumns, ProjectColumns: q.ProjectColumns,
		UseIndex: q.UseIndex, Parallel: q.Parallel, Aggregate: q.Aggregate,
		AggBytesPerRow: q.AggBytesPerRow, AggCyclesPerRow: q.AggCyclesPerRow,
	}), nil, &e.Costs)
	return phys, phys.Lower(e.deps())
}

// assertFreshPlan fails unless a statement record of the plan the engine
// uses for q holds the same operators, and the plan explains to the same
// text, as a fresh plan of q.
func assertFreshPlan(t *testing.T, e *Engine, q *Query, what string) {
	t.Helper()
	pl := e.plainPlan(q)
	phys, ops := freshPlan(e, q)
	r := e.take(&pl.free, pl.phys)
	r.free()
	if got := r.m.Pipeline.Ops; !reflect.DeepEqual(got, ops) {
		t.Fatalf("%s: operators differ from a fresh plan\n got: %#v\nwant: %#v", what, got, ops)
	}
	if got, want := pl.phys.Explain(), phys.Explain(); got != want {
		t.Fatalf("%s: EXPLAIN differs from a fresh plan\n--- got ---\n%s--- want ---\n%s", what, got, want)
	}
}

// cacheTables returns a one-part table and a four-part physically partitioned
// table, each with an indexed column COLA and unindexed COLB and COLC.
func cacheTables(e *Engine) []*colstore.Table {
	cols := func() []*colstore.Column {
		return []*colstore.Column{
			colstore.Build("COLA", testColumnVals(8000, 1<<12, 1), true),
			colstore.Build("COLB", testColumnVals(8000, 1<<12, 2), false),
			colstore.Build("COLC", testColumnVals(8000, 1<<12, 3), false),
		}
	}
	one := colstore.NewTable("ONE", cols())
	e.Placer.PlaceRR(one)
	return []*colstore.Table{one, e.Placer.PlacePP(colstore.NewTable("PP", cols()), 4)}
}

// TestPlanCacheMatchesFreshPlans is the plan-cache oracle: over random plain
// statements drawn from a small shape space — so most are cache hits — every
// plan the engine uses lowers to the same operators (reflect.DeepEqual) and
// explains to the same text as a fresh Build -> Optimize -> Lower. The draw
// covers one-part and multi-part tables, extra predicates, projections,
// aggregation, UseIndex on indexed and unindexed columns, and DisableCoalesce
// flipped between statements; after some statements the caller overwrites
// its name slices, which a cache entry must not alias.
func TestPlanCacheMatchesFreshPlans(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tables := cacheTables(e)
	names := []string{"COLA", "COLB", "COLC"}
	sels := []float64{1e-4, 0.2}
	extras := [][]string{nil, {"COLB"}, {"COLC"}}
	projects := [][]string{nil, {"COLA"}, {"COLC", "COLB"}}
	rng := rand.New(rand.NewSource(7))
	// pick returns the caller's own copy of one of the name lists.
	pick := func(lists [][]string) []string {
		return append([]string(nil), lists[rng.Intn(len(lists))]...)
	}
	const n = 3000
	hits := 0
	for i := 0; i < n; i++ {
		q := &Query{
			Table:                 tables[rng.Intn(len(tables))],
			Column:                names[rng.Intn(2)],
			Selectivity:           sels[rng.Intn(len(sels))],
			ExtraPredicateColumns: pick(extras),
			ProjectColumns:        pick(projects),
			UseIndex:              rng.Intn(2) == 0,
			Parallel:              rng.Intn(4) != 0,
		}
		if rng.Intn(2) == 0 {
			q.Aggregate = true
			q.AggBytesPerRow = 8
			q.AggCyclesPerRow = 8
		}
		e.DisableCoalesce = rng.Intn(4) == 0
		before := e.nPlans
		assertFreshPlan(t, e, q, "statement")
		if e.nPlans == before {
			hits++
		}
		if rng.Intn(8) == 0 {
			for _, s := range [][]string{q.ExtraPredicateColumns, q.ProjectColumns} {
				for j := range s {
					s[j] = names[rng.Intn(len(names))]
				}
			}
		}
	}
	if hits < n/2 {
		t.Fatalf("only %d of %d statements hit the cache", hits, n)
	}
}

// TestPlanCacheFollowsIndexAndMerge: an index build between two equal
// statements flips the advisory index eligibility, and a delta merge changes
// the column the plan explains; the second statement still gets the fresh
// plan either way.
func TestPlanCacheFollowsIndexAndMerge(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := cacheTables(e)[0]
	q := &Query{Table: tbl, Column: "COLB", Selectivity: 1e-4, UseIndex: true, Parallel: true}
	assertFreshPlan(t, e, q, "before the index build")
	if e.plainPlan(q).phys.Scan.IndexEligible {
		t.Fatal("an unindexed column planned as index-eligible")
	}
	col := tbl.Column("COLB")
	col.BuildIndex()
	assertFreshPlan(t, e, q, "after the index build")
	if !e.plainPlan(q).phys.Scan.IndexEligible {
		t.Fatal("the cached plan kept its stale index eligibility")
	}

	for v := int64(0); v < 200; v++ {
		e.ApplyInsert(col, int(v%4), v)
	}
	assertFreshPlan(t, e, q, "with a delta")
	e.Placer.MergeDelta(col, col.Delta.Snapshot())
	assertFreshPlan(t, e, q, "after the merge")
}

// TestPlanCacheBounded: 10k distinct selectivities never grow the cache past
// its bound.
func TestPlanCacheBounded(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 1, 1000, false)
	for i := 0; i < 10_000; i++ {
		e.plainPlan(&Query{Table: tbl, Column: "COLA", Selectivity: float64(i+1) / 10_001, Parallel: true})
		entries := 0
		for _, b := range e.plans {
			entries += len(b)
		}
		if entries != e.nPlans || entries > maxPlainPlans {
			t.Fatalf("after %d shapes the cache holds %d entries (counted %d), bound %d",
				i+1, entries, e.nPlans, maxPlainPlans)
		}
	}
}
