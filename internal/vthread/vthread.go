//go:build go1.23 && !race

// Package vthread runs a virtual thread as a stdlib iter.Pull coroutine.
// It is the one execution core shared by both substrates that run lock code
// in virtual time: the memsim NUMA simulator and the mcheck model checker.
//
// A virtual thread is a body function that runs only while its scheduler has
// granted it a step. The scheduler calls Resume; the body runs until it calls
// Yield (Resume returns true) or returns (Resume returns false). Control
// moves between scheduler and body by direct coroutine switch, not through
// channels and the Go scheduler, so exactly one of them runs at any instant
// and the state they share needs no locking.
//
// A thread costs nothing until its first Resume: Spawn only records the
// body, and the coroutine (and its goroutine) is created on the first grant.
// Stop ends a suspended thread by making its pending Yield unwind the body's
// stack with a sentinel panic, which the thread swallows, so deferred calls
// in the body run and no goroutine is left behind. A panic raised by the
// body itself reaches the caller of Resume (or Stop) with its original
// value.
//
// The package needs Go 1.23 for iter.Pull. The build constraint above sets
// this file's language version, so the module's go line may stay older.
// Race-detector builds use the goroutine-backed twin in vthread_race.go,
// which explains why.
package vthread

import "iter"

// stopped is the sentinel panic that unwinds a body whose thread was
// stopped while suspended in Yield.
type stopped struct{}

// Thread is one virtual thread. Create it with Spawn; drive it with Resume
// and Stop from outside the body, and call Yield only from inside it.
type Thread struct {
	body  func()
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool
}

// Spawn returns a thread that will run body. Nothing runs, and no goroutine
// exists, until the first Resume.
func Spawn(body func()) *Thread {
	return &Thread{body: body}
}

// run is the coroutine's sequence function: it runs the body and swallows
// the stop sentinel, re-raising any other panic for iter.Pull to deliver.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				panic(r)
			}
		}
	}()
	t.body()
}

// Resume grants the thread one step: the body runs until its next Yield,
// and Resume returns true, or until it returns, and Resume returns false
// (as it does for every later call). A panic in the body is re-raised here
// with its original value, and the thread is done.
func (t *Thread) Resume() bool {
	if t.done {
		return false
	}
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.run)
	}
	// Marked done across the switch, so a panic leaves the thread done.
	t.done = true
	_, ok := t.next()
	t.done = !ok
	return ok
}

// Yield suspends the body until the scheduler's next Resume. If the thread
// is stopped instead, Yield unwinds the body with the stop sentinel.
func (t *Thread) Yield() {
	if !t.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Stop ends the thread. A suspended body is unwound (its deferred calls
// run); a thread that never started, or has finished, is left as it is.
// Stop is idempotent.
func (t *Thread) Stop() {
	if t.done {
		return
	}
	t.done = true
	if t.stop != nil {
		t.stop()
	}
}

// Done reports whether the body has returned, panicked or been stopped.
func (t *Thread) Done() bool { return t.done }
