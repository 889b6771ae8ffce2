package exec

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/placement"
)

// TestFlowTasksAllocateNothing: once its Env has records on the free list, a
// find stream — here a chain of four flows over an IVP-partitioned column,
// private or a three-member cohort pass reporting its progress — and a
// materialize task run on recycled records and allocate nothing.
func TestFlowTasksAllocateNothing(t *testing.T) {
	env := testEnv()
	col := colstore.NewSynthetic("C", 100_000, 1<<17, false)
	placement.New(env.Machine).PlaceIVP(col, []int{0, 1, 2, 3})
	private := findStream{col: col, to: col.Rows, n: 1, outBytes: 40}
	pass := &SharedScanOp{}
	shared := findStream{col: col, to: col.Rows, n: 3, outBytes: 120, pass: pass}
	mat := outTask{col: col, matches: 1000, env: env}
	w := env.Sched.TGs[0].Workers[0]
	w.Bound = true

	finished := false
	done := func() { finished = true }
	for _, task := range []struct {
		name  string
		start func()
	}{
		{"private scan", func() { private.runIV(env, w, done) }},
		{"shared scan", func() { shared.runIV(env, w, done) }},
		{"materialize", func() { mat.Run(w, done) }},
	} {
		run := func() {
			finished = false
			task.start()
			for !finished {
				env.Sim.Step()
			}
		}
		run()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("a %s task on a warm Env allocates %v times, want 0", task.name, n)
		}
	}
	if pass.bytesDone == 0 {
		t.Error("the shared stream reported no progress to its pass")
	}
	records := 0
	for r := env.freeFlows; r != nil; r = r.next {
		records++
	}
	if records != 4 {
		t.Errorf("the free list holds %d records, want the 4 of the longest chain", records)
	}
}
