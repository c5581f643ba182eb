package main

import (
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newTicker returns a ticker backed by a timerfd, read through the network
// poller: its wake-ups are precise to microseconds, where a Go timer on an
// idle processor wakes up to a millisecond late (the poller's wait is
// rounded to whole milliseconds), coarser than the open loop's request
// interval.  It also returns the instant the ticker was armed.
func newTicker(every time.Duration) (ticker, time.Time, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, time.Time{}, os.NewSyscallError("timerfd_create", errno)
	}
	ts := syscall.NsecToTimespec(int64(every))
	spec := [2]syscall.Timespec{ts, ts} // interval, first expiry
	start := time.Now()
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, time.Time{}, os.NewSyscallError("timerfd_settime", errno)
	}
	return &fdTicker{f: os.NewFile(fd, "timerfd")}, start, nil
}

type fdTicker struct {
	f   *os.File
	buf [8]byte
}

// wait blocks until the timer has expired at least once since the last
// wait.
func (t *fdTicker) wait() error {
	_, err := io.ReadFull(t.f, t.buf[:])
	return err
}

func (t *fdTicker) stop() { t.f.Close() }
