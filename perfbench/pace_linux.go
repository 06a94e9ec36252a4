package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// lockPacerThread pins the calling goroutine to its thread and drops the
// thread's timer slack from the default 50 µs to 1 ns, so sleepFor wakes
// within about 10 µs of its target instead of 40–60 µs.
func lockPacerThread() {
	runtime.LockOSThread()
	// Best effort: with the default slack the pacer only spins longer.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepFor blocks the thread in nanosleep. Go's own timers wake on epoll's
// millisecond granularity, a millisecond late at the median on a 2-CPU
// host.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
