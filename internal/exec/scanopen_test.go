package exec

import (
	"math/rand"
	"runtime"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/placement"
	"numacs/internal/sim"
)

// scanOpenEnv returns a bare Env with the scan model's RNG and a table of
// one 100k-row column placed on socket 1.
func scanOpenEnv() (*Env, *colstore.Table) {
	env := testEnv()
	env.Rand = rand.New(rand.NewSource(1))
	col := colstore.NewSynthetic("C", 100_000, 1<<17, false)
	placement.New(env.Machine).PlaceColumnOnSocket(col, 1)
	return env, colstore.NewTable("T", []*colstore.Column{col})
}

// openStatement opens the find and output phases of one plain parallel
// statement over column C.
func openStatement(env *Env, tb *colstore.Table) {
	p := &Pipeline{Env: env}
	scan := &ScanOp{Table: tb, Selectivity: 1e-5, Parallel: true, Cols: ResolveColumns(tb, "C")}
	mat := &MaterializeOp{Scan: scan, Parallel: true}
	scan.Open(p)
	scan.Close(p)
	mat.Open(p)
}

// TestScanOpenSkipsMCLoadWalk pins the lazy MC-load snapshot: planning a
// statement over an unreplicated column never asks the hardware for its
// memory-controller load, so it allocates exactly as much with 10k active
// flows on the engine as on an idle one — and it plans even with no
// hardware model at all, while a replicated column does consult it.
func TestScanOpenSkipsMCLoadWalk(t *testing.T) {
	env, tb := scanOpenEnv()
	idle := testing.AllocsPerRun(50, func() { openStatement(env, tb) })
	for i := 0; i < 10_000; i++ {
		env.Sim.StartFlow(&sim.Flow{
			Remaining: 1e12,
			Demands:   []sim.Demand{{Resource: env.HW.MC[i%env.Machine.Sockets], Weight: 1}},
		})
	}
	if busy := testing.AllocsPerRun(50, func() { openStatement(env, tb) }); busy != idle {
		t.Fatalf("Open allocates %v times with 10k active flows, %v when idle", busy, idle)
	}

	rep := colstore.NewSynthetic("C", 100_000, 1<<17, false)
	placement.New(env.Machine).PlaceReplicated(rep, []int{0, 2})
	repTable := colstore.NewTable("RT", []*colstore.Column{rep})
	openStatement(env, repTable)

	env.HW = nil
	openStatement(env, tb) // would panic on an MC-load walk
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Fatal("a replicated column planned without consulting the MC load")
		}
	}()
	openStatement(env, repTable)
}

// BenchmarkScanOpen times the per-statement planning of the find and output
// phases: one ScanOp.Open + MaterializeOp.Open of a plain parallel
// statement over a 100k-row column is one row of the reported ns/row, which
// the CI perf gate diffs.
func BenchmarkScanOpen(b *testing.B) {
	env, tb := scanOpenEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openStatement(env, tb)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
