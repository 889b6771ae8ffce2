package exec_test

// Integration tests for the operator-pipeline layer: raw scan and join
// pipelines must be counter-identical to the statement entry points on a
// fixed seed, and the scan -> join -> aggregate composition must run
// end-to-end with per-socket traffic accounted.

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/join"
	"numacs/internal/metrics"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// assertSameRun fails the test when two runs' counters differ in any field.
func assertSameRun(t *testing.T, want, got *metrics.Counters) {
	t.Helper()
	if fw, fg := metrics.Fingerprint(want), metrics.Fingerprint(got); fw != fg {
		t.Fatalf("runs differ:\n--- want ---\n%s--- got ---\n%s", fw, fg)
	}
}

func placedTable(e *core.Engine) *colstore.Table {
	tb := workload.Generate(workload.DatasetConfig{
		Rows: 60_000, Columns: 8, BitcaseMin: 12, BitcaseMax: 19, Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(tb)
	e.Placer.PlaceTableIVP(tb, 4)
	return tb
}

// TestPipelineScanMatchesQueryPath: composing ScanOp + MaterializeOp by hand
// into a raw pipeline, started behind the same fixed per-query overhead, must
// be numerically identical to the core.Query scan path (which is planned and
// lowered onto those same operators). The concurrency hint is off in both
// runs: a raw pipeline is not a statement the engine counts as active.
func TestPipelineScanMatchesQueryPath(t *testing.T) {
	run := func(viaQuery bool) *metrics.Counters {
		e := core.New(topology.FourSocketIvyBridge(), 1)
		e.ConcurrencyHintEnabled = false
		tb := placedTable(e)
		for i := 0; i < 24; i++ {
			if viaQuery {
				e.Submit(&core.Query{
					Table: tb, Column: "COL002", Selectivity: 1e-3,
					Parallel: true, Strategy: core.Bound, HomeSocket: i % 4,
				})
				continue
			}
			scan := &exec.ScanOp{Table: tb, Column: "COL002", Selectivity: 1e-3, Parallel: true}
			mat := &exec.MaterializeOp{Scan: scan, Parallel: true}
			p := &exec.Pipeline{
				Env: e.ExecEnv(), Strategy: core.Bound, HomeSocket: i % 4,
				IssuedAt: e.Sim.Now(), Ops: []exec.Operator{scan, mat},
			}
			e.Sim.StartFlow(&sim.Flow{
				Remaining: e.Costs.QueryOverheadSeconds, RateCap: 1, OnDone: p.Start,
			})
		}
		e.Sim.Run(0.05)
		return e.Counters
	}
	assertSameRun(t, run(true), run(false))
}

// TestPipelineJoinMatchesExecutePath: a raw two-operator pipeline built from
// exec.JoinOp must be numerically identical to join.Execute.
func TestPipelineJoinMatchesExecutePath(t *testing.T) {
	run := func(viaExecute bool) *metrics.Counters {
		e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 10e-6)
		build := colstore.NewSynthetic("DIM", 20_000, 1<<12, false)
		probe := colstore.NewSynthetic("FACT", 80_000, 1<<12, false)
		e.Placer.PlaceIVP(build, []int{0, 1, 2, 3})
		e.Placer.PlaceIVP(probe, []int{0, 1, 2, 3})
		for i := 0; i < 8; i++ {
			if viaExecute {
				join.Execute(e, join.Spec{
					Build: build, Probe: probe, Strategy: core.Bound,
					HTSockets: []int{0, 1, 2, 3}, HitsPerProbeRow: 1, HomeSocket: i % 4,
				})
				continue
			}
			j := &exec.JoinOp{
				Build: build, Probe: probe, HTSockets: []int{0, 1, 2, 3},
				HitsPerProbeRow: 1, Alloc: e.Placer.Alloc,
			}
			p := &exec.Pipeline{
				Env: e.ExecEnv(), Strategy: core.Bound, HomeSocket: i % 4,
				IssuedAt: e.Sim.Now(), Ops: []exec.Operator{j.BuildOp(), j.ProbeOp()},
			}
			p.Start()
		}
		e.Sim.Run(0.05)
		return e.Counters
	}
	assertSameRun(t, run(true), run(false))
}

// TestStarJoinPipelineEndToEnd: the composed scan -> join -> aggregate
// statement — impossible on the pre-refactor paths — completes on the
// simulated 4-socket machine with traffic accounted on every socket, and is
// deterministic on a fixed seed.
func TestStarJoinPipelineEndToEnd(t *testing.T) {
	run := func(st core.Strategy) (*metrics.Counters, int) {
		e := core.NewWithStep(topology.FourSocketIvyBridge(), 1, 10e-6)
		dim := colstore.NewTable("DIM", []*colstore.Column{
			colstore.NewSynthetic("D_DATE", 20_000, 1<<12, false),
			colstore.NewSynthetic("D_ID", 20_000, 1<<14, false),
		})
		fact := colstore.NewTable("FACT", []*colstore.Column{
			colstore.NewSynthetic("F_FK", 80_000, 1<<14, false),
		})
		for _, c := range dim.Parts[0].Columns {
			e.Placer.PlaceIVP(c, []int{0, 1, 2, 3})
		}
		e.Placer.PlaceIVP(fact.Parts[0].Columns[0], []int{0, 1, 2, 3})

		completed := 0
		for i := 0; i < 8; i++ {
			i := i
			var issue func()
			issue = func() {
				join.ExecuteStar(e, join.StarSpec{
					Dim: dim, DimPredicate: "D_DATE", DimKey: "D_ID",
					Fact: fact, FactFK: "F_FK",
					Selectivity: 0.05, HitsPerProbeRow: 1,
					AggBytesPerRow: 12, AggCyclesPerRow: 24,
					HTSockets: []int{0, 1, 2, 3}, Strategy: st,
					HomeSocket: i % 4,
					OnDone:     func(float64) { completed++; issue() },
				})
			}
			issue()
		}
		e.Sim.Run(0.05)
		return e.Counters, completed
	}

	c, completed := run(core.Bound)
	if completed == 0 {
		t.Fatal("no star-join statements completed")
	}
	if c.QueriesDone == 0 {
		t.Fatal("no latencies recorded")
	}
	for s, b := range c.MCBytes {
		if b <= 0 {
			t.Errorf("socket %d served no memory traffic", s)
		}
	}
	// Every phase streams its inputs from their own sockets under Bound, so
	// each socket must see local traffic (the interleaved hash-table probes
	// are legitimately remote).
	for s, b := range c.LocalBytes {
		if b <= 0 {
			t.Errorf("socket %d read no local bytes", s)
		}
	}

	// NUMA-awareness must pay for the composed statement like it does for
	// plain scans: Bound well ahead of the OS strategy.
	_, osCompleted := run(core.OSched)
	if float64(completed) < 2*float64(osCompleted) {
		t.Errorf("Bound (%d) should be >=2x OS (%d) on the composed statement", completed, osCompleted)
	}

	// Determinism on the fixed seed.
	c2, completed2 := run(core.Bound)
	if completed2 != completed {
		t.Fatalf("completions differ across runs: %d vs %d", completed, completed2)
	}
	assertSameRun(t, c, c2)

	// The statement participates in the concurrency hint (unlike the bare
	// join path): with 8 in flight the hint must shrink.
	e := core.New(topology.FourSocketIvyBridge(), 1)
	if e.ConcurrencyHint() != e.Machine.TotalThreads() {
		t.Fatalf("idle hint should be all threads")
	}
}
