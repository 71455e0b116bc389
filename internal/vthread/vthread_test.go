package vthread

import (
	"runtime"
	"testing"

	"github.com/clof-go/clof/internal/leakcheck"
)

// TestResumeYieldOrder: each Resume runs the body exactly to its next
// Yield, and the final Resume reports completion.
func TestResumeYieldOrder(t *testing.T) {
	var log []int
	var th *Thread
	th = Spawn(func() {
		for i := 0; i < 3; i++ {
			log = append(log, i)
			th.Yield()
		}
		log = append(log, 99)
	})
	if len(log) != 0 {
		t.Fatal("Spawn ran the body")
	}
	for i := 0; i < 3; i++ {
		if !th.Resume() {
			t.Fatalf("Resume %d reported completion", i)
		}
		if len(log) != i+1 || log[i] != i {
			t.Fatalf("after Resume %d: log = %v", i, log)
		}
	}
	if th.Resume() {
		t.Fatal("last Resume did not report completion")
	}
	if !th.Done() || log[len(log)-1] != 99 {
		t.Fatalf("done=%v log=%v", th.Done(), log)
	}
	if th.Resume() {
		t.Fatal("Resume after completion reported a step")
	}
}

// TestStopUnwinds: stopping a suspended thread runs the body's deferred
// calls, skips the rest of the body, and is idempotent.
func TestStopUnwinds(t *testing.T) {
	var th *Thread
	deferred, after := false, false
	th = Spawn(func() {
		defer func() { deferred = true }()
		th.Yield()
		after = true
	})
	th.Resume()
	th.Stop()
	th.Stop()
	if !deferred || after || !th.Done() {
		t.Fatalf("deferred=%v after=%v done=%v", deferred, after, th.Done())
	}
	if th.Resume() {
		t.Fatal("Resume after Stop reported a step")
	}
}

// TestStopYieldInDefer: a deferred call that yields again while the body
// unwinds from Stop unwinds too, instead of suspending a stopped thread.
func TestStopYieldInDefer(t *testing.T) {
	var th *Thread
	th = Spawn(func() {
		defer th.Yield()
		th.Yield()
	})
	th.Resume()
	th.Stop()
	if !th.Done() {
		t.Fatal("thread not done after Stop")
	}
}

// TestStopBeforeStart: a thread stopped before its first step never runs
// and never creates a goroutine.
func TestStopBeforeStart(t *testing.T) {
	leakcheck.Check(t, func() {
		before := runtime.NumGoroutine()
		ran := false
		th := Spawn(func() { ran = true })
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("Spawn started a goroutine: %d -> %d", before, n)
		}
		th.Stop()
		if ran || th.Resume() {
			t.Fatal("stopped thread ran")
		}
	})
}

// TestPanicPropagates: a body panic reaches the Resume caller with its
// original value and leaves the thread done.
func TestPanicPropagates(t *testing.T) {
	type boom struct{ n int }
	var th *Thread
	th = Spawn(func() {
		th.Yield()
		panic(boom{7})
	})
	th.Resume()
	func() {
		defer func() {
			if r := recover(); r != (boom{7}) {
				t.Fatalf("recovered %v, want boom{7}", r)
			}
		}()
		th.Resume()
		t.Fatal("Resume did not panic")
	}()
	if !th.Done() {
		t.Fatal("panicked thread not done")
	}
	th.Stop()
}

// TestNoGoroutineLeak: finished, stopped and panicked threads all give
// back their goroutines.
func TestNoGoroutineLeak(t *testing.T) {
	leakcheck.Check(t, func() {
		var ths []*Thread
		for i := 0; i < 64; i++ {
			var th *Thread
			i := i
			th = Spawn(func() {
				th.Yield()
				if i%3 == 0 {
					panic(i)
				}
				th.Yield()
			})
			ths = append(ths, th)
			th.Resume()
		}
		for i, th := range ths {
			switch i % 3 {
			case 0:
				func() {
					defer func() { _ = recover() }()
					th.Resume()
				}()
			case 1:
				for th.Resume() {
				}
			default:
				th.Stop()
			}
		}
	})
}
