package sched

import (
	"testing"

	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// BenchmarkSchedTick measures the scheduler's dispatch on the 4-socket
// IvyBridge, in the steady state the benchmark's mat-skew workload keeps.
// Sampled at every Tick of a seed-1 run (0.8 simulated seconds, 334,549
// statements), mat-skew submitted 8.00 tasks per statement, none hard and
// none without an affinity, with affinities even over the four sockets
// (25.0% each, submitted round-robin) and about 85 tasks per priority value
// (statements issued in one step share their issue time). A Tick found 117
// tasks queued and 85 of the 120 workers free, started 84 and left 34
// queued; 0.54% of the starts were cross-socket steals, and 61% of the
// tasks ran for one Tick, 37% for two.
//
// One "row" is one such dispatch round: the queues are refilled with one
// round's priority to the 84 starts plus the backlog of 34, round-robin over
// the sockets; one Tick starts 84 of them on the free workers; then the
// oldest workers finish until nine per socket are still busy, so 36 tasks
// run into the next round. The bed steals nothing: its free workers are
// spread as evenly as its queued tasks.
func BenchmarkSchedTick(b *testing.B) {
	m := topology.FourSocketIvyBridge()
	s := New(hw.New(sim.New(25e-6), m), metrics.New(m.Sockets))
	const (
		starts  = 84
		backlog = 34
	)
	busy := (m.TotalThreads() - starts) / m.Sockets
	pool := make([]Task, m.TotalThreads()+starts+backlog)
	free := make([]*Task, 0, len(pool))
	for i := range pool {
		free = append(free, &pool[i])
	}
	running := make([][]*Worker, m.Sockets)
	run := RunFunc(func(w *Worker, done func()) {
		running[w.Socket()] = append(running[w.Socket()], w)
	})
	next := 0
	round := func(r int) {
		for s.QueuedTasks() < starts+backlog {
			t := free[len(free)-1]
			free = free[:len(free)-1]
			*t = Task{Priority: float64(r), Affinity: next % m.Sockets, Run: run}
			s.Submit(t)
			next++
		}
		s.Tick(float64(r) * 25e-6)
		for sock, ws := range running {
			n := len(ws) - busy
			for _, w := range ws[:n] {
				t := w.task
				w.done()
				free = append(free, t)
			}
			running[sock] = append(ws[:0], ws[n:]...)
		}
	}
	// The first round starts on an idle machine; from the second on, every
	// round starts 84 tasks and leaves the backlog.
	round(0)
	stolen, finished := s.Counters.TasksStolen, s.Counters.TasksExecuted
	round(1)
	if q, f, st := s.QueuedTasks(), s.Counters.TasksExecuted-finished, s.Counters.TasksStolen-stolen; q != backlog || f != starts || st != 0 {
		b.Fatalf("a round left %d tasks queued, finished %d and stole %d; want %d, %d and none", q, f, st, backlog, starts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
