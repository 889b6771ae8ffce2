package cputime

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

func thread() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("cputime: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}
