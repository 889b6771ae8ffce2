package cputime

import (
	"runtime"
	"testing"
	"time"
)

// TestThreadCountsWorkNotSleep: the thread clock advances while the thread
// computes and barely while it sleeps.
func TestThreadCountsWorkNotSleep(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := Thread()
	x := uint64(1)
	for d := time.Now(); time.Since(d) < 20*time.Millisecond; {
		x = x*6364136223846793005 + 1
	}
	busy := Thread() - t0
	t1 := Thread()
	time.Sleep(50 * time.Millisecond)
	slept := Thread() - t1
	if busy < 5e-3 || slept > 10e-3 {
		t.Fatalf("20ms of work read %.4fs and 50ms of sleep %.4fs on the thread clock (x=%d)", busy, slept, x)
	}
}
