package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/plan"
	"numacs/internal/topology"
)

// freshPlan plans q the uncached way — Build -> Optimize -> Lower, with
// statistics collected from the tables a join plan scans — for the
// plan-cache oracle. build returns a fresh copy of q, whose plan tree the
// oracle may consume.
func freshPlan(e *Engine, build func() *Query) (*plan.Physical, []exec.Operator) {
	q := build()
	l, stats := q.Plan, (*plan.Stats)(nil)
	if l == nil {
		l = plan.BuildQuery(plan.Statement{
			Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
			ExtraPredicateColumns: q.ExtraPredicateColumns, ProjectColumns: q.ProjectColumns,
			UseIndex: q.UseIndex, Parallel: q.Parallel, Aggregate: q.Aggregate,
			AggBytesPerRow: q.AggBytesPerRow, AggCyclesPerRow: q.AggCyclesPerRow,
		})
	} else {
		var tables []*colstore.Table
		joins := false
		walkPlan(l.Root, func(n plan.Node) {
			switch v := n.(type) {
			case *plan.ScanNode:
				tables = append(tables, v.Table)
			case *plan.JoinNode:
				joins = true
			}
		})
		if joins {
			stats = plan.Collect(tables...)
		}
	}
	phys := plan.Optimize(l, stats, &e.Costs)
	return phys, phys.Lower(plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce})
}

// opConfig renders the configuration of v, an operator or a field of one:
// its exported fields, following pointers and interfaces into exec's
// operator structs, with any other pointer rendered as its address. Two
// operator lists over the same tables render alike when their operators
// were set up alike, whatever state earlier executions left in their
// unexported fields.
func opConfig(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return "nil"
		}
		if el := v.Elem(); el.Kind() == reflect.Pointer || el.Kind() == reflect.Struct && el.Type().PkgPath() == "numacs/internal/exec" {
			return opConfig(el)
		}
		return fmt.Sprintf("%p", v.Interface())
	case reflect.Struct:
		var b strings.Builder
		b.WriteString(v.Type().Name() + "{")
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s:%s ", f.Name, opConfig(v.Field(i)))
			}
		}
		return b.String() + "}"
	case reflect.Slice:
		if v.IsNil() {
			return "nil"
		}
		var b strings.Builder
		b.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			b.WriteString(opConfig(v.Index(i)) + " ")
		}
		return b.String() + "]"
	default:
		return fmt.Sprint(v.Interface())
	}
}

// assertFreshPlan fails unless a statement record of the cache entry the
// engine uses for the statement build returns — refreshed as a statement
// refreshes its record when it begins — holds the same physical plan
// (reflect.DeepEqual, and the same EXPLAIN text) and operators set up the
// same way as a fresh plan of the statement.
func assertFreshPlan(t *testing.T, e *Engine, build func() *Query, what string) {
	t.Helper()
	r := e.record(build())
	r.refresh()
	r.free()
	phys, ops := freshPlan(e, build)
	if got, want := r.phys.Explain(), phys.Explain(); got != want {
		t.Fatalf("%s: EXPLAIN differs from a fresh plan\n--- got ---\n%s--- want ---\n%s", what, got, want)
	}
	if !reflect.DeepEqual(r.phys, phys) {
		t.Fatalf("%s: the physical plan differs from a fresh plan\n got: %#v\nwant: %#v", what, r.phys, phys)
	}
	if got, want := opConfig(reflect.ValueOf(r.m.Pipeline.Ops)), opConfig(reflect.ValueOf(ops)); got != want {
		t.Fatalf("%s: operators differ from a fresh plan\n got: %s\nwant: %s", what, got, want)
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

// cacheStarTables returns a star schema whose columns hold values, so an
// index can be built and deltas merged: a dimension (D_DATE predicate, IVP
// over all sockets; D_ID key on socket 0) and a fact table (F_FK foreign
// key on socket 0).
func cacheStarTables(e *Engine) (dim, fact *colstore.Table) {
	dim = colstore.NewTable("DIM", []*colstore.Column{
		colstore.Build("D_DATE", testColumnVals(4000, 1<<10, 4), false),
		colstore.Build("D_ID", testColumnVals(4000, 1<<12, 5), false),
	})
	fact = colstore.NewTable("FACT", []*colstore.Column{
		colstore.Build("F_FK", testColumnVals(16000, 1<<12, 6), false),
	})
	e.Placer.PlaceIVP(dim.Column("D_DATE"), []int{0, 1, 2, 3})
	e.Placer.PlaceColumnOnSocket(dim.Column("D_ID"), 0)
	e.Placer.PlaceColumnOnSocket(fact.Column("F_FK"), 0)
	return dim, fact
}

// cacheStar builds a star over cacheStarTables' schema: its dimension
// predicate's selectivity, whether the dimension scan may use an index, and
// its hash-table sockets.
func cacheStar(dim, fact *colstore.Table, sel float64, useIndex bool, ht []int) *plan.Logical {
	l := plan.BuildStar(plan.StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24, HTSockets: ht},
		plan.StarDim{Dim: dim, Predicate: "D_DATE", Key: "D_ID", FactFK: "F_FK", Selectivity: sel, HitsPerProbeRow: 1})
	l.Root.(*plan.AggregateNode).Input.(*plan.JoinNode).Build.(*plan.FilterNode).UseIndex = useIndex
	return l
}

// TestPlanCacheMatchesFreshPlans is the plan-cache oracle: over random
// statements drawn from a small shape space — so most are cache hits —
// every plan the engine uses equals a fresh Build -> Optimize -> Lower. The
// draw covers plain statements (one-part and multi-part tables, extra
// predicates, projections, aggregation, UseIndex on indexed and unindexed
// columns), the same shapes written as join-free Query.Plan statements,
// and stars (dimension selectivities, index use and hash-table sockets),
// with DisableCoalesce flipped between statements; after some statements
// the caller overwrites its name slices and the star's sockets, which a
// cache entry must not alias.
func TestPlanCacheMatchesFreshPlans(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tables := cacheTables(e)
	dim, fact := cacheStarTables(e)
	names := []string{"COLA", "COLB", "COLC"}
	sels := []float64{1e-4, 0.2}
	extras := [][]string{nil, {"COLB"}, {"COLC"}}
	projects := [][]string{nil, {"COLA"}, {"COLC", "COLB"}}
	sockets := [][]int{nil, {0}, {0, 1, 2, 3}}
	rng := rand.New(rand.NewSource(7))
	// pick returns the caller's own copy of one of the lists.
	pick := func(lists [][]string) []string {
		return append([]string(nil), lists[rng.Intn(len(lists))]...)
	}
	const n = 3000
	hits := 0
	for i := 0; i < n; i++ {
		var build func() *Query
		var overwrite [][]string
		var ht []int
		switch kind := rng.Intn(3); kind {
		case 0, 1:
			q := Query{
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
			overwrite = [][]string{q.ExtraPredicateColumns, q.ProjectColumns}
			build = func() *Query { c := q; return &c }
			if kind == 1 {
				build = func() *Query {
					return &Query{Plan: plan.BuildQuery(plan.Statement{
						Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
						ExtraPredicateColumns: q.ExtraPredicateColumns, ProjectColumns: q.ProjectColumns,
						UseIndex: q.UseIndex, Parallel: q.Parallel, Aggregate: q.Aggregate,
						AggBytesPerRow: q.AggBytesPerRow, AggCyclesPerRow: q.AggCyclesPerRow,
					})}
				}
			}
		case 2:
			sel, useIndex := sels[rng.Intn(len(sels))], rng.Intn(2) == 0
			ht = append([]int(nil), sockets[rng.Intn(len(sockets))]...)
			build = func() *Query { return &Query{Plan: cacheStar(dim, fact, sel, useIndex, ht)} }
		}
		e.DisableCoalesce = rng.Intn(4) == 0
		before := e.nPlans
		assertFreshPlan(t, e, build, "statement")
		if e.nPlans == before {
			hits++
		}
		if rng.Intn(8) == 0 {
			for _, s := range overwrite {
				for j := range s {
					s[j] = names[rng.Intn(len(names))]
				}
			}
			for j := range ht {
				ht[j] = rng.Intn(4)
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
	build := func() *Query {
		return &Query{Table: tbl, Column: "COLB", Selectivity: 1e-4, UseIndex: true, Parallel: true}
	}
	assertFreshPlan(t, e, build, "before the index build")
	if e.cachedPlan(build()).physical(e).Scan.IndexEligible {
		t.Fatal("an unindexed column planned as index-eligible")
	}
	col := tbl.Column("COLB")
	col.BuildIndex()
	assertFreshPlan(t, e, build, "after the index build")
	if !e.cachedPlan(build()).physical(e).Scan.IndexEligible {
		t.Fatal("the cached plan kept its stale index eligibility")
	}

	for v := int64(0); v < 200; v++ {
		e.ApplyInsert(col, int(v%4), v)
	}
	assertFreshPlan(t, e, build, "with a delta")
	e.Placer.MergeDelta(col, col.Delta.Snapshot())
	assertFreshPlan(t, e, build, "after the merge")
}

// TestPlanCacheFollowsEveryInput extends TestPlanCacheFollowsIndexAndMerge
// to every statement kind and every change a live table sees. Between two
// rounds of the same statements — a plain and a join-free Query.Plan
// statement that may use an index, and two stars, one whose dimension scan
// may use an index and whose hash table takes the build key's socket — it
// applies one change: a column move, IVP repartitioning, a replica added
// and one dropped, an index build, delta inserts (each advancing its
// fragment's watermark), their merge, inserts merged at once (the row
// counts change and the delta sizes do not), a socket going offline, or a
// cost-model change. After each, every statement still hits its cache entry, and the
// entry's plan and its records' operators equal a fresh plan's; then every
// statement runs to completion on its recycled record. Each input an entry
// collects has a change here that fails the test when the entry stops
// collecting it: row counts (a merge), the cost model, and the index
// presence read by a join-free scan and by a star's build scan (an index
// build; the second star's dimension scan may use an index).
func TestPlanCacheFollowsEveryInput(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	dim, fact := cacheStarTables(e)
	in := e.EnableChaos(chaos.Config{Schedule: []chaos.Event{{At: 1, Kind: chaos.SocketOffline, Socket: 3}}}, dim, fact)
	date, id, fk := dim.Column("D_DATE"), dim.Column("D_ID"), fact.Column("F_FK")
	stmts := []func() *Query{
		func() *Query {
			return &Query{Table: fact, Column: "F_FK", Selectivity: 1e-4, UseIndex: true, Parallel: true, Strategy: Bound}
		},
		func() *Query {
			return &Query{Plan: plan.BuildQuery(plan.Statement{Table: dim, Column: "D_DATE", Selectivity: 1e-4,
				UseIndex: true, Parallel: true, Aggregate: true, AggBytesPerRow: 8, AggCyclesPerRow: 8}), Strategy: Bound}
		},
		func() *Query { return &Query{Plan: cacheStar(dim, fact, 0.05, false, []int{0}), Strategy: Bound} },
		func() *Query { return &Query{Plan: cacheStar(dim, fact, 1e-4, true, nil), Strategy: Target} },
	}
	round := func(what string) {
		t.Helper()
		entries := e.nPlans
		for _, build := range stmts {
			assertFreshPlan(t, e, build, what)
		}
		if entries > 0 && e.nPlans != entries {
			t.Fatalf("%s: the cache grew from %d to %d entries, want every statement to hit", what, entries, e.nPlans)
		}
		done := 0
		for _, build := range stmts {
			q := build()
			q.OnDone = func(float64) { done++ }
			e.Submit(q)
		}
		for done < len(stmts) {
			e.Sim.Step()
		}
	}
	insert := func() {
		for _, c := range []*colstore.Column{date, id, fk} {
			for v := int64(0); v < 400; v++ {
				e.ApplyInsert(c, int(v%4), v)
			}
		}
	}
	merge := func() {
		for _, c := range []*colstore.Column{date, id, fk} {
			e.Placer.MergeDelta(c, c.Delta.Snapshot())
		}
	}
	round("first")
	for _, ch := range []struct {
		what  string
		apply func()
	}{
		{"a column move", func() { e.Placer.PlaceColumnOnSocket(id, 2) }},
		{"IVP repartitioning", func() { e.Placer.RepartitionIVP(date, []int{1, 3}) }},
		{"a replica added", func() { e.Placer.AddReplica(fk, 1); e.Placer.AddReplica(fk, 3) }},
		{"a replica dropped", func() { e.Placer.DropReplica(fk, 1) }},
		{"an index build", func() { date.BuildIndex(); fk.BuildIndex() }},
		{"delta inserts", insert},
		{"a merge", merge},
		{"delta inserts and their merge", func() { insert(); merge() }},
		{"a socket going offline", func() {
			for len(in.Applied) == 0 {
				e.Sim.Step()
			}
		}},
		{"a cost-model change", func() { e.Costs.IndexSelectivityThreshold = 1e-5 }},
	} {
		ch.apply()
		round("after " + ch.what)
	}
	if len(in.Applied) != 1 || in.Applied[0].ReplicasDropped != 1 {
		t.Fatalf("the offline socket applied %+v, want one event dropping one replica", in.Applied)
	}
}

// TestRecycledStarFollowsBuildKey: a star whose hash table defaults to its
// build key's majority socket, run on a recycled record before and after
// the build key moves to another socket — a move no plan input sees, so the
// record keeps its operators — allocates its hash table on the key's
// socket of each run, as a fresh plan does.
func TestRecycledStarFollowsBuildKey(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	dim, fact := cacheStarTables(e)
	id := dim.Column("D_ID")
	var c *cachedPlan
	// htSocket runs the star and returns the socket whose pages grew while
	// its hash table was allocated.
	htSocket := func() int {
		q := &Query{Plan: cacheStar(dim, fact, 0.05, false, nil), Strategy: Bound}
		c = e.cachedPlan(q)
		done := false
		q.OnDone = func(float64) { done = true }
		before := make([]int64, e.Machine.Sockets)
		for s := range before {
			before[s] = e.Placer.Alloc.PagesOnSocket(s)
		}
		e.Submit(q)
		grew := -1
		for !done {
			e.Sim.Step()
			for s := range before {
				if e.Placer.Alloc.PagesOnSocket(s) > before[s] {
					grew = s
				}
			}
		}
		return grew
	}
	if got := htSocket(); got != 0 {
		t.Fatalf("the first run allocated its hash table on socket %d, want the build key's socket 0", got)
	}
	first, phys := e.free, c.phys
	e.Placer.PlaceColumnOnSocket(id, 2)
	if got := htSocket(); got != 2 {
		t.Fatalf("the recycled star allocated its hash table on socket %d, want the build key's new socket 2", got)
	}
	if e.free != first || c.phys != phys {
		t.Fatal("the second run did not reuse the first run's record and plan")
	}
}

// TestPlanCacheBounded: 10k distinct selectivities never grow the cache past
// its bound.
func TestPlanCacheBounded(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 1, 1000, false)
	for i := 0; i < 10_000; i++ {
		e.cachedPlan(&Query{Table: tbl, Column: "COLA", Selectivity: float64(i+1) / 10_001, Parallel: true})
		entries := 0
		for _, b := range e.plans {
			entries += len(b)
		}
		if entries != e.nPlans || entries > maxPlans {
			t.Fatalf("after %d shapes the cache holds %d entries (counted %d), bound %d",
				i+1, entries, e.nPlans, maxPlans)
		}
	}
}
