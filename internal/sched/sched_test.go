package sched

import (
	"testing"

	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

func testSched(m *topology.Machine) (*Scheduler, *sim.Engine) {
	e := sim.New(50e-6)
	h := hw.New(e, m)
	s := New(h, metrics.New(m.Sockets))
	e.AddActor(s)
	return s, e
}

// immediateTask returns a task that completes as soon as it is dispatched
// and records the socket it ran on.
func immediateTask(priority float64, affinity int, hard bool, ranOn *[]int) *Task {
	return &Task{
		Priority:     priority,
		Affinity:     affinity,
		Hard:         hard,
		CallerSocket: 0,
		Run: RunFunc(func(w *Worker, done func()) {
			*ranOn = append(*ranOn, w.Socket())
			done()
		}),
	}
}

func TestWorkerCoverageMatchesHardwareContexts(t *testing.T) {
	for _, m := range []*topology.Machine{topology.FourSocketIvyBridge(), topology.ThirtyTwoSocketIvyBridge()} {
		s, _ := testSched(m)
		total := 0
		perSocket := make(map[int]int)
		for _, tg := range s.TGs {
			total += len(tg.Workers)
			perSocket[tg.Socket] += len(tg.Workers)
		}
		if total != m.TotalThreads() {
			t.Fatalf("%s: %d workers, want %d", m.Name, total, m.TotalThreads())
		}
		for sock := 0; sock < m.Sockets; sock++ {
			if perSocket[sock] != m.ThreadsPerSocket() {
				t.Fatalf("%s: socket %d has %d workers", m.Name, sock, perSocket[sock])
			}
		}
	}
}

func TestTGsPerSocketRule(t *testing.T) {
	if TGsPerSocket(4) != 1 || TGsPerSocket(8) != 1 {
		t.Fatal("small topologies should have one TG per socket")
	}
	if TGsPerSocket(32) != 2 {
		t.Fatal("large topologies should have two TGs per socket")
	}
	s, _ := testSched(topology.ThirtyTwoSocketIvyBridge())
	if len(s.TGs) != 64 {
		t.Fatalf("32-socket machine has %d TGs, want 64", len(s.TGs))
	}
}

func TestAffinityRespected(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var ran []int
	for i := 0; i < 8; i++ {
		s.Submit(immediateTask(0, 2, false, &ran))
	}
	e.Step()
	if len(ran) != 8 {
		t.Fatalf("%d tasks ran, want 8", len(ran))
	}
	for _, sock := range ran {
		if sock != 2 {
			t.Fatalf("task with affinity 2 ran on socket %d", sock)
		}
	}
}

func TestNoAffinityRunsOnCallerSocket(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var ran []int
	task := immediateTask(0, -1, false, &ran)
	task.CallerSocket = 3
	s.Submit(task)
	e.Step()
	if len(ran) != 1 || ran[0] != 3 {
		t.Fatalf("ran on %v, want socket 3", ran)
	}
}

func TestPriorityOrder(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	// Occupy every worker of socket 0 with long tasks so queued tasks are
	// ordered strictly by priority when capacity frees up.
	var order []float64
	blockDone := make([]func(), 0)
	nWorkers := 30
	for i := 0; i < nWorkers; i++ {
		s.Submit(&Task{
			Affinity: 0, Hard: true, Priority: -1,
			Run: RunFunc(func(w *Worker, done func()) { blockDone = append(blockDone, done) }),
		})
	}
	e.Step()
	// Now queue tasks in shuffled priority order.
	for _, p := range []float64{5, 1, 4, 2, 3} {
		pp := p
		s.Submit(&Task{
			Affinity: 0, Hard: true, Priority: pp,
			Run: RunFunc(func(w *Worker, done func()) {
				order = append(order, pp)
				done()
			}),
		})
	}
	// Release one worker at a time; queued tasks must run lowest-priority-
	// value first.
	for i := 0; i < 5; i++ {
		blockDone[i]()
		e.Step()
	}
	want := []float64{1, 2, 3, 4, 5}
	if len(order) != 5 {
		t.Fatalf("ran %d tasks, want 5", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOTiebreakWithinPriority(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var order []int
	blockDone := []func(){}
	for i := 0; i < 30; i++ {
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: -1,
			Run: RunFunc(func(w *Worker, done func()) { blockDone = append(blockDone, done) })})
	}
	e.Step()
	for i := 0; i < 4; i++ {
		id := i
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: 7,
			Run: RunFunc(func(w *Worker, done func()) { order = append(order, id); done() })})
	}
	for i := 0; i < 4; i++ {
		blockDone[i]()
		e.Step()
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestInterSocketStealingOfNormalTasks(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var ran []int
	// 120 tasks bound for socket 0's queue; workers of other sockets should
	// steal some.
	for i := 0; i < 120; i++ {
		s.Submit(immediateTask(0, 0, false, &ran))
	}
	e.Step()
	if len(ran) != 120 {
		t.Fatalf("%d ran", len(ran))
	}
	stolen := 0
	for _, sock := range ran {
		if sock != 0 {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("expected inter-socket steals of normal tasks")
	}
	if s.Counters.TasksStolen != uint64(stolen) {
		t.Fatalf("steal counter = %d, observed %d", s.Counters.TasksStolen, stolen)
	}
}

func TestHardTasksNeverCrossSockets(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var ran []int
	for i := 0; i < 200; i++ {
		s.Submit(immediateTask(0, 1, true, &ran))
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if len(ran) != 200 {
		t.Fatalf("%d ran, want 200", len(ran))
	}
	for _, sock := range ran {
		if sock != 1 {
			t.Fatalf("hard task executed on socket %d", sock)
		}
	}
	if s.Counters.TasksStolen != 0 {
		t.Fatalf("hard tasks counted as stolen: %d", s.Counters.TasksStolen)
	}
}

func TestIntraSocketStealingFromHardQueues(t *testing.T) {
	// On the 32-socket machine each socket has two TGs; hard tasks queued on
	// one TG may be executed by the other TG of the same socket.
	m := topology.ThirtyTwoSocketIvyBridge()
	s, e := testSched(m)
	var ran []int
	perTG := m.ThreadsPerSocket() / 2
	// More hard tasks than one TG's workers can start in one tick.
	for i := 0; i < perTG*2; i++ {
		s.Submit(immediateTask(0, 5, true, &ran))
	}
	e.Step()
	if len(ran) != perTG*2 {
		t.Fatalf("%d ran, want %d", len(ran), perTG*2)
	}
	for _, sock := range ran {
		if sock != 5 {
			t.Fatalf("hard task left socket 5: ran on %d", sock)
		}
	}
}

func TestStealDisabled(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	s.StealEnabled = false
	var ran []int
	for i := 0; i < 120; i++ {
		s.Submit(immediateTask(0, 0, false, &ran))
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	for _, sock := range ran {
		if sock != 0 {
			t.Fatal("steal disabled but task crossed sockets")
		}
	}
}

func TestAsyncTaskCompletion(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(50e-6)
	h := hw.New(e, m)
	s := New(h, metrics.New(m.Sockets))
	e.AddActor(s)
	finished := false
	s.Submit(&Task{
		Affinity: 0,
		Run: RunFunc(func(w *Worker, done func()) {
			// Simulate a streaming phase: 1 MiB local scan.
			demands, _ := h.StreamDemandsInto(nil, w.Socket(), 0, w.CoreRes, 0.5)
			e.StartFlow(&sim.Flow{
				Remaining: 1 << 20,
				RateCap:   m.StreamRate(w.Socket(), 0),
				Demands:   demands,
				OnDone: func() {
					finished = true
					done()
				},
			})
		}),
	})
	e.Run(0.01)
	if !finished {
		t.Fatal("flow-backed task did not finish")
	}
	if s.Counters.TasksExecuted != 1 {
		t.Fatalf("TasksExecuted = %d", s.Counters.TasksExecuted)
	}
	if s.Counters.WorkerBusySeconds <= 0 {
		t.Fatal("busy time not recorded")
	}
	if s.WorkingWorkers() != 0 {
		t.Fatal("worker not released")
	}
}

func TestWatchdogRuns(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	e.Run(0.01)
	if s.WatchdogRuns == 0 {
		t.Fatal("watchdog never ran")
	}
}

func TestSubmitTwicePanics(t *testing.T) {
	s, _ := testSched(topology.FourSocketIvyBridge())
	task := &Task{Affinity: 0, Run: RunFunc(func(w *Worker, done func()) { done() })}
	s.Submit(task)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double submit")
		}
	}()
	s.Submit(task)
}

// TestTaskStartFinishAllocatesNothing: the scheduler hands every task its
// worker's prebuilt done callback and runs Then from finish, so submitting,
// starting and finishing a task allocates nothing beyond what the task's own
// Run does — here nothing, and the barrier-style Then hook still runs once
// per task, after the worker is free again.
func TestTaskStartFinishAllocatesNothing(t *testing.T) {
	s, _ := testSched(topology.FourSocketIvyBridge())
	thens := 0
	task := Task{
		Affinity: 1, Hard: true,
		Run: RunFunc(func(w *Worker, done func()) { done() }),
		Then: func() {
			if s.WorkingWorkers() != 0 {
				t.Error("Then ran before the worker was released")
			}
			thens++
		},
	}
	cycle := func() {
		task.enqueued = false
		s.Submit(&task)
		s.Tick(0) // now stays 0: the watchdog, which samples, never runs
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a task's start and finish allocate %v times, want 0", n)
	}
	if thens != 102 {
		t.Fatalf("Then ran %d times over 102 tasks", thens)
	}
}

// The scheduler observers below are the tests' view of worker and queue
// state; the engine reads the same state through Saturation.

// QueuedTasks returns the machine-wide queue depth.
func (s *Scheduler) QueuedTasks() int {
	n := 0
	for _, tg := range s.TGs {
		n += tg.QueuedTasks()
	}
	return n
}

// WorkingWorkers returns the number of workers currently executing tasks.
func (s *Scheduler) WorkingWorkers() int {
	n := 0
	for _, tg := range s.TGs {
		for _, w := range tg.Workers {
			if w.State == Working {
				n++
			}
		}
	}
	return n
}

// Workers returns the total worker count of the snapshot.
func (s Saturation) Workers() int { return s.Working + s.Free + s.Parked + s.Inactive }

// FreeWorkers returns the number of workers in the Free state.
func (s *Scheduler) FreeWorkers() int {
	n := 0
	for _, tg := range s.TGs {
		for _, w := range tg.Workers {
			if w.State == Free {
				n++
			}
		}
	}
	return n
}

// ParkedWorkers returns the number of workers in the Parked state.
func (s *Scheduler) ParkedWorkers() int {
	n := 0
	for _, tg := range s.TGs {
		for _, w := range tg.Workers {
			if w.State == Parked {
				n++
			}
		}
	}
	return n
}
