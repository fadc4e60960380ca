package main

import (
	"syscall"
	"time"
)

// sysmonKick is how long the pinning goroutine stays in one system call:
// longer than two of the monitor's slowest rounds (10 ms each), so that a
// backed-off monitor still sees it in the same call twice and takes its P.
const sysmonKick = 25 * time.Millisecond

// pinSysmon keeps the Go runtime's monitor thread (sysmon) in its active
// regime for the length of a run, and returns the function that ends it.
// Workloads that make durable writes are run under it; README.md has the
// measurements.
//
// sysmon polls every 20 µs while it finds processors to take back from
// system calls, and backs off to 10 ms after 50 rounds of finding none. A
// workload that waits on fsync with a processor to spare lives in either
// regime for tens of seconds and changes between them mid-run: polled, every
// 0.2 ms fsync loses its P to a freshly woken thread (16 context switches
// and 0.70 ms of CPU per replicated write, 1,550 writes/s); backed off,
// nothing is handed over (7 switches, 0.51 ms, 2,050 writes/s). Unpinned,
// every time-based metric of such a workload is bimodal by a third. Any
// call that blocks for over 10 ms returns the runtime to the polled regime,
// which a long-lived server therefore mostly inhabits; this goroutine blocks
// for 25 ms over and over, so it is the only regime a run sees. The call
// holds no lock, and its P is taken back as soon as anyone needs it.
func pinSysmon() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			ts := syscall.NsecToTimespec(int64(sysmonKick))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens one kick
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
