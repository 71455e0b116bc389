// Package leakcheck lets a test assert that the code it calls leaves no
// goroutine behind. A goroutine that has reported the end of its work may
// still be on its way out when the test looks (the race-detector build of
// internal/vthread runs virtual threads on such goroutines), so the count
// before the call is taken once it has settled, and the count after it is
// given a moment to fall back.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check runs fn and fails t if more goroutines are running afterwards than
// before.
func Check(t testing.TB, fn func()) {
	t.Helper()
	before := settled()
	fn()
	after := runtime.NumGoroutine()
	deadline := time.Now().Add(time.Second)
	for after > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

// settled returns the goroutine count once it has read the same a few
// times in a row, giving exiting goroutines the chance to finish.
func settled() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && same < 3; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
