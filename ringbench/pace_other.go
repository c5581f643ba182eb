//go:build !linux

package main

import "time"

// newTicker returns a ticker on the Go timer, whose wake-ups may run up to a
// millisecond late; the lateness shows in loadgen.late_p99_ms.
func newTicker(every time.Duration) (ticker, time.Time, error) {
	return goTicker{time.NewTicker(every)}, time.Now(), nil
}

type goTicker struct{ t *time.Ticker }

func (t goTicker) wait() error { <-t.t.C; return nil }

func (t goTicker) stop() { t.t.Stop() }
