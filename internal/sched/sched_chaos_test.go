package sched

import (
	"testing"

	"numacs/internal/topology"
)

// Submissions targeting an offline socket land on the nearest online one;
// hard tasks stay hard there.
func TestOfflineRedirectsSubmissions(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	if n := s.SetSocketOnline(2, false); n != 0 {
		t.Fatalf("empty drain re-placed %d tasks", n)
	}
	if s.SocketOnline(2) || !s.SocketOnline(3) {
		t.Fatal("online bookkeeping wrong")
	}
	var ran []int
	for i := 0; i < 4; i++ {
		s.Submit(immediateTask(0, 2, i%2 == 0, &ran))
	}
	e.Step()
	if len(ran) != 4 {
		t.Fatalf("%d tasks ran, want 4", len(ran))
	}
	for _, sock := range ran {
		if sock != 3 {
			t.Fatalf("redirected task ran on socket %d, want 3 (nearest online)", sock)
		}
	}
}

// Taking a socket offline drains its queues: already-enqueued tasks re-place
// onto online sockets and still run, and the dead socket's free workers park.
func TestOfflineDrainsQueuedTasks(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var ran []int
	for i := 0; i < 6; i++ {
		s.Submit(immediateTask(float64(i), 1, i >= 4, &ran))
	}
	if n := s.SetSocketOnline(1, false); n != 6 {
		t.Fatalf("drained %d tasks, want 6", n)
	}
	if got := s.ParkedWorkers(); got != topology.FourSocketIvyBridge().ThreadsPerSocket() {
		t.Fatalf("%d workers parked, want the whole socket", got)
	}
	e.Step()
	if len(ran) != 6 {
		t.Fatalf("%d drained tasks ran, want 6", len(ran))
	}
	for _, sock := range ran {
		if sock == 1 {
			t.Fatal("task ran on the offline socket")
		}
	}
	// Idempotent: a second offline transition is a no-op.
	if n := s.SetSocketOnline(1, false); n != 0 {
		t.Fatalf("repeated offline drained %d tasks", n)
	}
}

// Bringing a socket back un-parks its workers and submissions target it again.
func TestOnlineRestoresSocket(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	s.SetSocketOnline(2, false)
	s.SetSocketOnline(2, true)
	if s.ParkedWorkers() != 0 {
		t.Fatalf("%d workers still parked after online", s.ParkedWorkers())
	}
	var ran []int
	for i := 0; i < 4; i++ {
		s.Submit(immediateTask(0, 2, false, &ran))
	}
	e.Step()
	for _, sock := range ran {
		if sock != 2 {
			t.Fatalf("task ran on socket %d after restore, want 2", sock)
		}
	}
}

// A worker mid-task when its socket dies finishes the task and then parks
// instead of going back to Free.
func TestWorkerParksAfterTaskWhenOffline(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var finish func()
	s.Submit(&Task{
		Affinity: 0,
		Run: RunFunc(func(w *Worker, done func()) {
			finish = done
		}),
	})
	e.Step()
	if finish == nil {
		t.Fatal("task never dispatched")
	}
	if s.WorkingWorkers() != 1 {
		t.Fatalf("%d working workers, want 1", s.WorkingWorkers())
	}
	s.SetSocketOnline(0, false)
	finish()
	want := topology.FourSocketIvyBridge().ThreadsPerSocket()
	if got := s.ParkedWorkers(); got != want {
		t.Fatalf("%d workers parked after finish, want %d", got, want)
	}
}

// With every socket offline a submission cannot be placed anywhere.
func TestAllSocketsOfflinePanics(t *testing.T) {
	s, _ := testSched(topology.FourSocketIvyBridge())
	for sock := 0; sock < 4; sock++ {
		s.SetSocketOnline(sock, false)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submitting with all sockets offline should panic")
		}
	}()
	var ran []int
	s.Submit(immediateTask(0, 0, false, &ran))
}
