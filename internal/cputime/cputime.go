// Package cputime reads the calling thread's CPU clock, for the kernel
// speedup tests: a pass timed on it does not count the time its thread spent
// descheduled behind other processes, which wall-clock timing does.
package cputime

// Thread returns the CPU time the calling OS thread has consumed, in
// seconds. Lock the goroutine to its thread (runtime.LockOSThread) around an
// interval timed with it. Platforms without a per-thread clock fall back to
// a wall clock.
func Thread() float64 { return thread() }
