// Package sched implements the NUMA-aware task scheduler of Section 5.1:
// thread groups (TGs) per socket, each with a normal priority queue
// (stealable by any socket) and a hard priority queue (stealable only within
// the socket), worker threads in working/free/parked states, statement-
// timestamp priorities, a stealing order of own TG -> other TGs of the same
// socket -> TGs of other sockets, and a watchdog that keeps thread groups
// saturated.
package sched

import (
	"container/heap"
	"fmt"

	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/sim"
)

// Runner is the work a Task carries, usually a pointer to a record its
// owner reuses. Run starts it on the worker that picked the task up; it
// calls done, the worker's own callback, when it finishes (at once for
// zero-cost work).
type Runner interface {
	Run(w *Worker, done func())
}

// RunFunc adapts a function to the Runner interface.
type RunFunc func(w *Worker, done func())

// Run implements Runner.
func (f RunFunc) Run(w *Worker, done func()) { f(w, done) }

// Task is a schedulable unit of work. A caller that reuses Task storage
// assigns the whole struct, which also resets the scheduler's bookkeeping.
type Task struct {
	// Priority orders tasks; lower values run first. The engine uses the
	// issue timestamp of the SQL statement, so tasks of older queries are
	// preferred and a query's tasks complete close together (Section 5.1).
	Priority float64
	// Affinity is the socket the task wants to run on; -1 for none. A task
	// with no affinity is inserted into the queue of the TG where the caller
	// runs, for cache affinity.
	Affinity int
	// Hard marks the task as bound: it is placed in the hard priority queue
	// and can only be executed by workers of its socket.
	Hard bool
	// CallerSocket is where the task creator runs; used for no-affinity
	// insertion.
	CallerSocket int
	// Run starts execution on a worker and must eventually call done.
	Run Runner
	// Then, when non-nil, runs once the task has called done and its worker
	// is back in the free pool — the hook a caller uses to react to the
	// completion (exec's phase barrier is one) without wrapping Run and done
	// in per-task closures. It runs after the scheduler's own bookkeeping,
	// which has dropped every pointer to the task, so it may submit new
	// tasks and reuse this task's storage.
	Then func()
	// OnStart, when non-nil, is invoked at pickup time — before Run — with
	// the executing worker and whether the pickup was a cross-socket steal.
	// The flight recorder uses it to stamp first-task times and per-socket
	// task counts; it must only observe, never reschedule.
	OnStart func(w *Worker, stolen bool)

	seq      uint64
	homeTG   int // TG the task was enqueued on
	enqueued bool
}

// State is a worker-thread state (Figure 6).
type State int

const (
	// Working: currently handling a task.
	Working State = iota
	// Free: waiting for a task, wakes up periodically.
	Free
	// Parked: sleeping until explicitly woken; used when free threads
	// already cover the hardware contexts.
	Parked
	// Inactive: blocked in the kernel on a synchronization primitive while
	// handling a task. Tasks in this simulator do not block, but the state
	// is modelled so the watchdog's accounting matches the paper.
	Inactive
)

// String names the worker state as in Figure 6.
func (s State) String() string {
	switch s {
	case Working:
		return "working"
	case Free:
		return "free"
	case Parked:
		return "parked"
	case Inactive:
		return "inactive"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Worker is a worker thread of a thread group.
type Worker struct {
	ID    int
	TG    *ThreadGroup
	State State

	// CoreRes is the compute resource of the core this worker's hardware
	// thread belongs to.
	CoreRes sim.ResourceID

	task      *Task
	busySince float64
	// done is the callback handed to every task this worker runs.
	done func()
	// Bound reports whether the worker is currently bound to its TG's
	// hardware contexts (set while handling tasks with an affinity).
	Bound bool
}

// Socket returns the socket the worker runs on.
func (w *Worker) Socket() int { return w.TG.Socket }

// ThreadGroup is a per-socket group of workers with two priority queues.
type ThreadGroup struct {
	ID     int
	Socket int

	queue     taskHeap // stealable by any socket
	hardQueue taskHeap // stealable only within the socket

	Workers []*Worker
}

// QueuedTasks returns the number of tasks waiting in both queues.
func (tg *ThreadGroup) QueuedTasks() int { return tg.queue.Len() + tg.hardQueue.Len() }

// Scheduler is the NUMA-aware task scheduler.
type Scheduler struct {
	HW       *hw.Hardware
	Counters *metrics.Counters

	TGs      []*ThreadGroup
	bySocket [][]*ThreadGroup

	// StealEnabled globally enables work stealing (true in the paper's
	// scheduler; the ablation benchmarks switch it off).
	StealEnabled bool

	// IgnorePriority makes the queues FIFO instead of statement-timestamp
	// ordered — the ablation for the paper's priority scheme, which makes a
	// query's tasks complete close together (Section 5.1).
	IgnorePriority bool

	// WatchdogPeriod is how often the watchdog actor runs.
	WatchdogPeriod float64

	nextSeq      uint64
	lastWatchdog float64

	// offline marks sockets taken down by fault injection (nil until the
	// first SetSocketOnline call, so the disabled path costs one nil check).
	// Submissions targeting an offline socket are redirected to the nearest
	// online one, and the socket's workers park until it returns.
	offline []bool

	// Watchdog statistics (Section 5.1): saturation observations.
	WatchdogRuns        uint64
	UnsaturatedObserved uint64
}

// TGsPerSocket returns the paper's sizing rule: small topologies get one
// thread group per socket, large ones two (to reduce queue contention).
func TGsPerSocket(sockets int) int {
	if sockets >= 16 {
		return 2
	}
	return 1
}

// New builds a scheduler with workers covering every hardware context.
func New(h *hw.Hardware, counters *metrics.Counters) *Scheduler {
	m := h.Machine
	s := &Scheduler{
		HW:             h,
		Counters:       counters,
		StealEnabled:   true,
		WatchdogPeriod: 1e-3,
	}
	perSocket := TGsPerSocket(m.Sockets)
	s.bySocket = make([][]*ThreadGroup, m.Sockets)
	id := 0
	for sock := 0; sock < m.Sockets; sock++ {
		coresPerTG := (m.CoresPerSocket + perSocket - 1) / perSocket
		for g := 0; g < perSocket; g++ {
			tg := &ThreadGroup{ID: id, Socket: sock}
			id++
			loCore := g * coresPerTG
			hiCore := loCore + coresPerTG
			if hiCore > m.CoresPerSocket {
				hiCore = m.CoresPerSocket
			}
			wid := 0
			for c := loCore; c < hiCore; c++ {
				for t := 0; t < m.ThreadsPerCore; t++ {
					w := &Worker{
						ID:      wid,
						TG:      tg,
						State:   Free,
						CoreRes: h.Core[sock][c],
					}
					w.done = func() { s.finish(w) }
					tg.Workers = append(tg.Workers, w)
					wid++
				}
			}
			s.TGs = append(s.TGs, tg)
			s.bySocket[sock] = append(s.bySocket[sock], tg)
		}
	}
	return s
}

// Submit enqueues a task. Tasks with an affinity go to a TG of that socket
// (the less loaded one); hard tasks go to its hard queue. Tasks without an
// affinity go to a TG of the caller's socket.
func (s *Scheduler) Submit(t *Task) {
	if t.enqueued {
		panic("sched: task submitted twice")
	}
	t.enqueued = true
	t.seq = s.nextSeq
	s.nextSeq++
	if s.IgnorePriority {
		t.Priority = 0 // FIFO via the seq tiebreak
	}
	socket := t.Affinity
	if socket < 0 {
		socket = t.CallerSocket
	}
	if s.offline != nil && s.offline[socket] {
		// Fault injection took the target socket down: re-place the task on
		// the nearest online socket. Hard tasks stay hard — they bind to the
		// fallback socket instead (their data is still reachable remotely).
		socket = s.nearestOnline(socket)
	}
	tgs := s.bySocket[socket]
	tg := tgs[0]
	for _, cand := range tgs[1:] {
		if cand.QueuedTasks() < tg.QueuedTasks() {
			tg = cand
		}
	}
	t.homeTG = tg.ID
	if t.Hard {
		heap.Push(&tg.hardQueue, t)
	} else {
		heap.Push(&tg.queue, t)
	}
}

// SocketOnline reports whether a socket's worker pool is available (true
// until fault injection takes it offline with SetSocketOnline).
func (s *Scheduler) SocketOnline(socket int) bool {
	return s.offline == nil || !s.offline[socket]
}

// nearestOnline returns the first online socket at increasing offset from the
// given one (deterministic re-placement order). It panics when every socket
// is offline — the machine cannot run any task then.
func (s *Scheduler) nearestOnline(socket int) int {
	n := len(s.bySocket)
	for off := 0; off < n; off++ {
		if cand := (socket + off) % n; !s.offline[cand] {
			return cand
		}
	}
	panic("sched: all sockets offline")
}

// SetSocketOnline transitions a socket between online and offline — the
// chaos layer's socket-failure events. Taking a socket offline drains both
// queues of its thread groups and re-places every queued task through Submit
// (which redirects to the nearest online socket), then parks the socket's
// free workers; workers mid-task finish their task and park on completion.
// Bringing it back online un-parks them. Returns the number of queued tasks
// re-placed (0 for an online transition or when already in the target state).
func (s *Scheduler) SetSocketOnline(socket int, online bool) int {
	if s.offline == nil {
		if online {
			return 0
		}
		s.offline = make([]bool, len(s.bySocket))
	}
	if s.offline[socket] == !online {
		return 0
	}
	s.offline[socket] = !online
	if online {
		for _, tg := range s.bySocket[socket] {
			for _, w := range tg.Workers {
				if w.State == Parked {
					w.State = Free
				}
			}
		}
		return 0
	}
	// Drain and re-place the dead socket's queues. heap.Pop yields priority
	// order, and Submit assigns fresh seq numbers, so the re-placed tasks
	// keep their relative order on the fallback socket's queues.
	var drained []*Task
	for _, tg := range s.bySocket[socket] {
		for tg.queue.Len() > 0 {
			drained = append(drained, heap.Pop(&tg.queue).(*Task))
		}
		for tg.hardQueue.Len() > 0 {
			drained = append(drained, heap.Pop(&tg.hardQueue).(*Task))
		}
		for _, w := range tg.Workers {
			if w.State == Free {
				w.State = Parked
			}
		}
	}
	for _, t := range drained {
		t.enqueued = false
		s.Submit(t)
	}
	return len(drained)
}

// Saturation is a point-in-time scheduler saturation snapshot: worker-state
// counts and thread-group queue depths. It is the signal the admission
// controller's elastic concurrency loop feeds on (free workers and shallow
// queues mean the engine can absorb more statements; deep queues mean the
// fan-out already outruns the workers) and what the watchdog samples into
// the metrics counters.
type Saturation struct {
	// Working, Free, Parked and Inactive count workers by state.
	Working, Free, Parked, Inactive int
	// Queued is the machine-wide queued-task total, and MaxDepth the
	// deepest thread group's queued tasks (normal + hard).
	Queued, MaxDepth int
}

// Saturation takes a saturation snapshot of all thread groups. It allocates
// nothing.
func (s *Scheduler) Saturation() Saturation {
	var snap Saturation
	for _, tg := range s.TGs {
		d := tg.QueuedTasks()
		snap.Queued += d
		snap.MaxDepth = max(snap.MaxDepth, d)
		for _, w := range tg.Workers {
			switch w.State {
			case Working:
				snap.Working++
			case Free:
				snap.Free++
			case Parked:
				snap.Parked++
			case Inactive:
				snap.Inactive++
			}
		}
	}
	return snap
}

// SocketQueueDepths returns the queued-task count per socket (thread-group
// depths folded onto their sockets).
func (s *Scheduler) SocketQueueDepths() []int {
	out := make([]int, len(s.bySocket))
	for _, tg := range s.TGs {
		out[tg.Socket] += tg.QueuedTasks()
	}
	return out
}

// Tick implements sim.Actor: the main dispatch loop. It mirrors the worker
// main loop of Section 5.1 — peek own queues, then the other TGs of the same
// socket (including their hard queues), then go around the normal queues of
// all sockets.
func (s *Scheduler) Tick(now float64) {
	// Local dispatch first: every TG serves its own queues.
	for _, tg := range s.TGs {
		for _, w := range tg.Workers {
			if w.State != Free {
				continue
			}
			t := s.popLocal(tg)
			if t == nil {
				break
			}
			s.start(w, t, now, false)
		}
	}
	// Stealing pass for workers still free.
	if s.StealEnabled {
		for _, tg := range s.TGs {
			for _, w := range tg.Workers {
				if w.State != Free {
					continue
				}
				t, interSocket := s.steal(tg)
				if t == nil {
					break
				}
				s.start(w, t, now, interSocket)
			}
		}
	}
	// Watchdog.
	if now-s.lastWatchdog >= s.WatchdogPeriod {
		s.lastWatchdog = now
		s.watchdog()
	}
}

// popLocal pops the highest-priority task across the TG's two queues.
func (s *Scheduler) popLocal(tg *ThreadGroup) *Task {
	switch {
	case tg.queue.Len() == 0 && tg.hardQueue.Len() == 0:
		return nil
	case tg.queue.Len() == 0:
		return heap.Pop(&tg.hardQueue).(*Task)
	case tg.hardQueue.Len() == 0:
		return heap.Pop(&tg.queue).(*Task)
	case taskLess(tg.hardQueue[0], tg.queue[0]):
		return heap.Pop(&tg.hardQueue).(*Task)
	default:
		return heap.Pop(&tg.queue).(*Task)
	}
}

// steal finds a task for a worker of tg: first other TGs of the same socket
// (hard queues included), then the normal queues of other sockets. Reports
// whether the steal crossed sockets.
func (s *Scheduler) steal(tg *ThreadGroup) (*Task, bool) {
	for _, other := range s.bySocket[tg.Socket] {
		if other == tg {
			continue
		}
		if t := s.popLocal(other); t != nil {
			return t, false
		}
	}
	n := len(s.bySocket)
	for off := 1; off < n; off++ {
		sock := (tg.Socket + off) % n
		for _, other := range s.bySocket[sock] {
			if other.queue.Len() > 0 {
				return heap.Pop(&other.queue).(*Task), true
			}
		}
	}
	return nil, false
}

// start hands a task to a worker.
func (s *Scheduler) start(w *Worker, t *Task, now float64, stolen bool) {
	w.State = Working
	w.task = t
	w.busySince = now
	// Binding semantics of Section 5.1: the worker binds to its TG's
	// hardware contexts while handling tasks with an affinity and unbinds
	// for tasks without one.
	w.Bound = t.Affinity >= 0
	if stolen {
		s.Counters.TasksStolen++
	}
	if t.OnStart != nil {
		t.OnStart(w, stolen)
	}
	t.Run.Run(w, w.done)
}

// finish returns a worker to the free pool, then runs its task's Then hook.
func (s *Scheduler) finish(w *Worker) {
	t := w.task
	now := s.HW.Engine.Now()
	dur := now - w.busySince
	s.Counters.TasksExecuted++
	s.Counters.WorkerBusySeconds += dur
	// Busy cycles feed the IPC proxy: a worker occupies its hardware context
	// for the task's wall time whether it retires instructions or stalls on
	// memory.
	s.Counters.AddCompute(w.Socket(), 0, dur*s.HW.Machine.FreqHz)
	w.task = nil
	w.State = Free
	if s.offline != nil && s.offline[w.Socket()] {
		// The socket went offline while this task ran: the worker parks
		// instead of rejoining the free pool.
		w.State = Parked
	}
	if t.Then != nil {
		t.Then()
	}
}

// watchdog mirrors the paper's watchdog thread: it scans thread groups,
// counts unsaturated TGs that still have queued tasks (in the real system it
// would wake or create threads; in the simulation every hardware context
// already has a worker, so this is observability), samples the saturation
// signals into the metrics counters, and updates statistics.
func (s *Scheduler) watchdog() {
	s.WatchdogRuns++
	unsaturated := false
	for _, tg := range s.TGs {
		working := 0
		for _, w := range tg.Workers {
			if w.State == Working {
				working++
			}
		}
		if working < len(tg.Workers) && tg.QueuedTasks() > 0 {
			s.UnsaturatedObserved++
			unsaturated = true
		}
	}
	snap := s.Saturation()
	s.Counters.AddSaturationSample(snap.Free, snap.Parked, snap.Queued, snap.MaxDepth, unsaturated)
}

// taskHeap is a priority heap ordered by (Priority, seq).
type taskHeap []*Task

func taskLess(a, b *Task) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return taskLess(h[i], h[j]) }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
