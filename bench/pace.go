package main

import (
	"errors"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// errStop, returned by a visit, ends a paced schedule early.
var errStop = errors.New("schedule stopped")

// clock is the time source of a paced client; tests substitute a fake to
// inject a stall.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// timerClock is the wall clock with a sleep that ends when it should.
// time.Sleep in an otherwise idle process wakes through epoll_wait's
// millisecond timeout and so up to a millisecond late, which is as long
// as the visits being paced. A timerfd read wakes through the same poller
// on the descriptor becoming readable, at the kernel timer's precision,
// without spinning. (Linux, 64-bit: the layout of itimerspec is assumed.)
type timerClock struct {
	fd uintptr
	f  *os.File
}

func newTimerClock() (*timerClock, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// os.NewFile registers a non-blocking descriptor with the runtime's
	// poller, so Read parks the goroutine and not a thread.
	return &timerClock{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (c *timerClock) Now() time.Time { return time.Now() }

func (c *timerClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	// itimerspec{it_interval, it_value}: one shot, d from now.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := c.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

func (c *timerClock) Close() error { return c.f.Close() }

// paced runs one client's fixed schedule the way wrk2 does: visit i is due
// at start+i*interval, fires when it is due and the client is free, and
// its latency runs from when it was DUE, not from when it was sent. A
// stall therefore costs every visit it delayed, where timing from the send
// would record one slow visit and hide the queue behind it (coordinated
// omission). Visits due before the deadline all run, however late, unless
// one returns errStop.
//
// record receives each visit's latency and error; late receives, for
// visits the client was idle for, how far past the due time the generator
// woke — the schedule's own error, which must stay small for the latency
// to mean anything.
func paced(clk clock, start time.Time, interval, window time.Duration, visit func(i int) error, record func(lat time.Duration, err error), late func(time.Duration)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= window {
			return
		}
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			late(clk.Now().Sub(due))
		}
		err := visit(i)
		if errors.Is(err, errStop) {
			return
		}
		record(clk.Now().Sub(due), err)
	}
}
