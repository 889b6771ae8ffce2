package core

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/topology"
)

func testColumnVals(rows int, mod int64, seed uint32) []int64 {
	vals := make([]int64, rows)
	s := seed
	for i := range vals {
		s = s*1664525 + 1013904223
		vals[i] = int64(s) % mod
	}
	return vals
}

func buildPlacedTable(e *Engine, cols, rows int, withIndex bool) *colstore.Table {
	columns := make([]*colstore.Column, cols)
	for j := range columns {
		c := colstore.Build("COL"+string(rune('A'+j)), testColumnVals(rows, 1<<14, uint32(j+1)), withIndex)
		columns[j] = c
	}
	t := colstore.NewTable("TBL", columns)
	e.Placer.PlaceRR(t)
	return t
}

func TestStrategyString(t *testing.T) {
	if OSched.String() != "OS" || Target.String() != "Target" || Bound.String() != "Bound" {
		t.Fatal("strategy names wrong")
	}
}

func TestConcurrencyHint(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	if got := e.ConcurrencyHint(); got != 120 {
		t.Fatalf("idle hint = %d, want 120", got)
	}
	e.activeStatements = 60
	if got := e.ConcurrencyHint(); got != 2 {
		t.Fatalf("hint at 60 stmts = %d, want 2", got)
	}
	e.activeStatements = 1000
	if got := e.ConcurrencyHint(); got != 1 {
		t.Fatalf("hint at 1000 stmts = %d, want 1", got)
	}
	e.ConcurrencyHintEnabled = false
	if got := e.ConcurrencyHint(); got != 120 {
		t.Fatalf("hint disabled = %d, want 120", got)
	}
}

func TestSingleQueryCompletes(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 20000, false)
	var latency float64
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", Selectivity: 0.001,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(l float64) { done = true; latency = l },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("query did not complete")
	}
	if latency <= 0 {
		t.Fatalf("latency = %v", latency)
	}
	if e.ActiveStatements() != 0 {
		t.Fatalf("active statements = %d", e.ActiveStatements())
	}
	if e.Counters.QueriesDone != 1 {
		t.Fatalf("QueriesDone = %d", e.Counters.QueriesDone)
	}
	if e.Counters.TotalMCBytes() <= 0 {
		t.Fatal("no memory traffic recorded")
	}
}

func TestBoundKeepsTrafficLocal(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 50000, false)
	for i := 0; i < 32; i++ {
		e.Submit(&Query{
			Table: tbl, Column: "COLB", Selectivity: 0.0001,
			Parallel: true, Strategy: Bound, HomeSocket: i % 4,
			OnDone: func(float64) {},
		})
	}
	e.Sim.Run(0.2)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no queries completed")
	}
	remote, local := 0.0, 0.0
	for s := 0; s < 4; s++ {
		remote += e.Counters.RemoteBytes[s]
		local += e.Counters.LocalBytes[s]
	}
	// The scan traffic must be overwhelmingly local under Bound; only the
	// interleave-free dictionary accesses (also local under RR) count.
	if remote > local*0.05 {
		t.Fatalf("Bound produced %.0f remote vs %.0f local bytes", remote, local)
	}
	if e.Counters.TasksStolen != 0 {
		t.Fatalf("Bound stole %d tasks", e.Counters.TasksStolen)
	}
}

func TestOSStrategyGeneratesRemoteTraffic(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 8, 50000, false)
	for i := 0; i < 32; i++ {
		e.Submit(&Query{
			Table: tbl, Column: "COLC", Selectivity: 0.0001,
			Parallel: true, Strategy: OSched, HomeSocket: i % 4,
			OnDone: func(float64) {},
		})
	}
	e.Sim.Run(0.2)
	remote := 0.0
	for s := 0; s < 4; s++ {
		remote += e.Counters.RemoteBytes[s]
	}
	if remote == 0 {
		t.Fatal("OS strategy produced no remote traffic; NUMA-agnostic model broken")
	}
}

func TestQueryOnIVPPartitionedColumn(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	c := colstore.Build("COLX", testColumnVals(80000, 1<<14, 3), false)
	tbl := colstore.NewTable("TBL", []*colstore.Column{c})
	e.Placer.PlaceIVP(c, []int{0, 1, 2, 3})
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLX", Selectivity: 0.001,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("IVP query did not complete")
	}
	// All four sockets must have served IV bytes.
	for s := 0; s < 4; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("socket %d served no bytes for an IVP-partitioned scan", s)
		}
	}
}

func TestQueryOnPPTable(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	cols := []*colstore.Column{colstore.Build("COLY", testColumnVals(80000, 1<<14, 5), false)}
	tbl := colstore.NewTable("TBL", cols)
	pp := e.Placer.PlacePP(tbl, 4)
	done := false
	e.Submit(&Query{
		Table: pp, Column: "COLY", Selectivity: 0.001,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("PP query did not complete")
	}
	for s := 0; s < 4; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("socket %d served no bytes for a PP scan", s)
		}
	}
}

func TestIndexPathUsedAtLowSelectivity(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 2, 30000, true)
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", Selectivity: 0.0005, UseIndex: true,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("index query did not complete")
	}
	// Index lookups stream far fewer bytes than a scan of the whole IV.
	ivBytes := float64(tbl.Column("COLA").IVBytes())
	if e.Counters.TotalMCBytes() > ivBytes/2 {
		t.Fatalf("index path moved %.0f bytes; scan would move %.0f — index not used",
			e.Counters.TotalMCBytes(), ivBytes)
	}
}

func TestScanPathUsedAboveIndexThreshold(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 2, 30000, true)
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", Selectivity: 0.05, UseIndex: true,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("query did not complete")
	}
	ivBytes := float64(tbl.Column("COLA").IVBytes())
	if e.Counters.TotalMCBytes() < ivBytes/2 {
		t.Fatal("expected full IV scan above the index threshold")
	}
}

func TestNonParallelQueryUsesOneTaskPerPhase(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 2, 30000, false)
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", Selectivity: 0.001,
		Parallel: false, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.5)
	if !done {
		t.Fatal("query did not complete")
	}
	// 1 scan + 1 materialization (the per-query overhead runs on the client
	// connection thread, not as a scheduler task).
	if e.Counters.TasksExecuted != 2 {
		t.Fatalf("TasksExecuted = %d, want 2", e.Counters.TasksExecuted)
	}
}

// recordItemTraffic attaches a hook to e that sums each column's traffic.
func recordItemTraffic(e *Engine) map[*colstore.Column]*exec.Traffic {
	traffic := map[*colstore.Column]*exec.Traffic{}
	e.AttachItemTraffic(func(col *colstore.Column, _ int, t exec.Traffic) {
		it := traffic[col]
		if it == nil {
			it = &exec.Traffic{}
			traffic[col] = it
		}
		it.Bytes += t.Bytes
		it.IVBytes += t.IVBytes
		it.DictBytes += t.DictBytes
		it.DeltaBytes += t.DeltaBytes
		it.WriteBytes += t.WriteBytes
	})
	return traffic
}

func TestItemTrafficAttribution(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 30000, false)
	traffic := recordItemTraffic(e)
	e.Submit(&Query{
		Table: tbl, Column: "COLB", Selectivity: 0.01,
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) {},
	})
	e.Sim.Run(0.5)
	it := traffic[tbl.Parts[0].ColumnByName("COLB")]
	if it == nil || it.Bytes <= 0 || it.IVBytes <= 0 {
		t.Fatalf("item traffic missing: %+v", it)
	}
	if _, ok := traffic[tbl.Parts[0].ColumnByName("COLA")]; ok {
		t.Fatal("unqueried column has traffic")
	}
}

func TestLatencyRecordedPerQuery(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 4, 20000, false)
	n := 16
	for i := 0; i < n; i++ {
		e.Submit(&Query{
			Table: tbl, Column: "COLA", Selectivity: 0.001,
			Parallel: true, Strategy: Target, HomeSocket: i % 4,
			OnDone: func(float64) {},
		})
	}
	e.Sim.Run(0.5)
	if got := e.Counters.Latencies().N; got != n {
		t.Fatalf("latencies recorded = %d, want %d", got, n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, float64) {
		e := New(topology.FourSocketIvyBridge(), 42)
		tbl := buildPlacedTable(e, 4, 30000, false)
		for i := 0; i < 16; i++ {
			e.Submit(&Query{
				Table: tbl, Column: "COLC", Selectivity: 0.005,
				Parallel: true, Strategy: Target, HomeSocket: i % 4,
				OnDone: func(float64) {},
			})
		}
		e.Sim.Run(0.1)
		return e.Counters.QueriesDone, e.Counters.TotalMCBytes()
	}
	q1, b1 := run()
	q2, b2 := run()
	if q1 != q2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", q1, b1, q2, b2)
	}
}
