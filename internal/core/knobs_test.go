package core

import (
	"testing"

	"numacs/internal/topology"
)

// TestUnboundPenaltyDrivesOSGap: the calibrated unbound-worker penalty is
// what separates OS from Bound; with the penalty off, the gap must shrink
// substantially.
func TestUnboundPenaltyDrivesOSGap(t *testing.T) {
	run := func(penalty float64, strategy Strategy) float64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		e.Costs.UnboundStreamPenalty = penalty
		tbl := buildPlacedTable(e, 8, 60000, false)
		for i := 0; i < 64; i++ {
			i := i
			var issue func(float64)
			issue = func(float64) {
				e.Submit(&Query{
					Table: tbl, Column: "COLA", Selectivity: 0.0001,
					Parallel: true, Strategy: strategy, HomeSocket: i % 4,
					OnDone: issue,
				})
			}
			issue(0)
		}
		e.Sim.Run(0.15)
		return float64(e.Counters.QueriesDone)
	}
	bound := run(0.15, Bound)
	osPenalized := run(0.15, OSched)
	osFree := run(1.0, OSched)
	if bound/osPenalized < 1.2*(bound/osFree) {
		t.Fatalf("penalty should widen the gap: bound/os %0.2f with penalty, %0.2f without",
			bound/osPenalized, bound/osFree)
	}
}

// TestDisableCoalesceIssuesMoreTasks: without region coalescing, the
// materialization preprocessing keeps one partition per fixed output region
// (each needing at least one task), so at high concurrency — where the
// concurrency hint would otherwise issue a single task — tasks per query
// explode. That is precisely the overhead the Section 5.2 coalescing
// avoids.
func TestDisableCoalesceIssuesMoreTasks(t *testing.T) {
	run := func(disable bool) uint64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		e.DisableCoalesce = disable
		tbl := buildPlacedTable(e, 2, 60000, false)
		for i := 0; i < 64; i++ {
			e.Submit(&Query{
				Table: tbl, Column: "COLA", Selectivity: 0.1,
				Parallel: true, Strategy: Bound, HomeSocket: i % 4,
				OnDone: func(float64) {},
			})
		}
		e.Sim.Run(0.1)
		q := e.Counters.QueriesDone
		if q == 0 {
			t.Fatal("no queries done")
		}
		return e.Counters.TasksExecuted / q
	}
	coalesced := run(false)
	exploded := run(true)
	if exploded < coalesced*3 {
		t.Fatalf("disabling coalescing should multiply tasks/query: %d vs %d", exploded, coalesced)
	}
}

// TestDisableCoalesceReachesStars: the coalescing ablation walks a star's
// output slots as it walks a join-free aggregate's, so at high concurrency
// a star's aggregation phase issues a task per non-empty slot instead of
// one per coalesced partition.
func TestDisableCoalesceReachesStars(t *testing.T) {
	run := func(disable bool) uint64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		e.DisableCoalesce = disable
		dim, fact := buildStarTables(e)
		for i := 0; i < 64; i++ {
			e.Submit(&Query{Plan: starPlan(dim, fact, "D_ID"), Strategy: Bound, HomeSocket: i % 4,
				OnDone: func(float64) {}})
		}
		e.Sim.Run(0.1)
		q := e.Counters.QueriesDone
		if q != 64 {
			t.Fatalf("disable=%v: %d of 64 stars done", disable, q)
		}
		return e.Counters.TasksExecuted / q
	}
	coalesced := run(false)
	exploded := run(true)
	if exploded < coalesced*3 {
		t.Fatalf("disabling coalescing should multiply a star's tasks: %d vs %d per star", exploded, coalesced)
	}
}

// TestBitvectorOutputFormat: at high selectivity the scan writes a bitvector
// (rows/8 bytes) instead of a position list (4 bytes per match), so the
// scan-phase output bytes drop by ~32x selectivity.
func TestBitvectorOutputFormat(t *testing.T) {
	run := func(sel float64) float64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		tbl := buildPlacedTable(e, 2, 60000, false)
		done := false
		e.Submit(&Query{
			Table: tbl, Column: "COLA", Selectivity: sel,
			Parallel: false, Strategy: Bound, HomeSocket: 0,
			OnDone: func(float64) { done = true },
		})
		e.Sim.Run(0.3)
		if !done {
			t.Fatal("query did not complete")
		}
		return e.Counters.TotalMCBytes()
	}
	// Just below and above the threshold: the bitvector's fixed rows/8
	// output is smaller than 60000*0.05*4 position bytes, so total traffic
	// must not jump proportionally to matches.
	below := run(0.019)
	above := run(0.021)
	// Above the threshold output bytes shrink; scan+materialization grow
	// slightly with matches. Net: traffic above must be < traffic below
	// scaled by the match ratio.
	if above >= below*(0.021/0.019) {
		t.Fatalf("bitvector format did not reduce output traffic: %.0f -> %.0f", below, above)
	}
}

// TestZeroMatchQueryCompletes: a predicate with no qualifying rows skips
// materialization entirely.
func TestZeroMatchQueryCompletes(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 2, 1000, false)
	done := false
	e.Submit(&Query{
		Table: tbl, Column: "COLA", Selectivity: 0, // zero matches
		Parallel: true, Strategy: Bound, HomeSocket: 0,
		OnDone: func(float64) { done = true },
	})
	e.Sim.Run(0.2)
	if !done {
		t.Fatal("zero-selectivity query did not complete")
	}
}

// TestHintDisabledFansOutMaximally verifies the ablation knob at high
// concurrency: without the hint every query fans out to the machine width.
func TestHintDisabledFansOutMaximally(t *testing.T) {
	run := func(enabled bool) uint64 {
		e := New(topology.FourSocketIvyBridge(), 1)
		e.ConcurrencyHintEnabled = enabled
		tbl := buildPlacedTable(e, 2, 60000, false)
		for i := 0; i < 64; i++ {
			e.Submit(&Query{
				Table: tbl, Column: "COLA", Selectivity: 0.0001,
				Parallel: true, Strategy: Bound, HomeSocket: i % 4,
				OnDone: func(float64) {},
			})
		}
		e.Sim.Run(0.05)
		q := e.Counters.QueriesDone
		if q == 0 {
			t.Fatal("no queries done")
		}
		return e.Counters.TasksExecuted / q
	}
	withHint := run(true)
	withoutHint := run(false)
	if withoutHint < withHint*4 {
		t.Fatalf("hint off should multiply tasks/query: %d vs %d", withoutHint, withHint)
	}
}
