//go:build race

package vthread

// Race-detector builds run each virtual thread on an ordinary goroutine with
// channel handoffs instead of an iter.Pull coroutine. A coroutine's goroutine
// ends without the race detector's goroutine-exit hook (Go 1.23 and 1.24),
// so the detector never releases the state it keeps per goroutine. Model
// checking creates hundreds of thousands of short-lived threads, and under
// -race that leaked state made a one-minute mcheck run stall for over ten
// minutes. This file keeps the API and its semantics (lazy start, stop by
// sentinel unwind, body panics re-raised in the scheduler); only the cost
// of a switch differs.

// stopped is the sentinel panic that unwinds a body whose thread was
// stopped while suspended in Yield.
type stopped struct{}

// event is what the body's goroutine reports to the scheduler at each switch.
type event struct {
	finished bool
	panicked bool
	val      any
}

// Thread is one virtual thread. Create it with Spawn; drive it with Resume
// and Stop from outside the body, and call Yield only from inside it.
type Thread struct {
	body     func()
	grant    chan bool // true: run a step; false: stop
	report   chan event
	stopping bool
	done     bool
}

// Spawn returns a thread that will run body. Nothing runs, and no goroutine
// exists, until the first Resume.
func Spawn(body func()) *Thread {
	return &Thread{body: body}
}

// run is the body's goroutine: it waits for the first grant, runs the body,
// and reports how it ended.
func (t *Thread) run() {
	ev := event{finished: true}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				ev.panicked, ev.val = true, r
			}
		}
		t.report <- ev
	}()
	if !<-t.grant {
		panic(stopped{})
	}
	t.body()
}

// switchTo hands the body one grant and waits for its report, re-raising a
// body panic in the scheduler.
func (t *Thread) switchTo(step bool) event {
	t.grant <- step
	ev := <-t.report
	if ev.panicked {
		panic(ev.val)
	}
	return ev
}

// Resume grants the thread one step: the body runs until its next Yield,
// and Resume returns true, or until it returns, and Resume returns false
// (as it does for every later call). A panic in the body is re-raised here
// with its original value, and the thread is done.
func (t *Thread) Resume() bool {
	if t.done {
		return false
	}
	if t.grant == nil {
		t.grant, t.report = make(chan bool), make(chan event)
		go t.run()
	}
	// Marked done across the switch, so a panic leaves the thread done.
	t.done = true
	t.done = t.switchTo(true).finished
	return !t.done
}

// Yield suspends the body until the scheduler's next Resume. If the thread
// is stopped instead, Yield unwinds the body with the stop sentinel.
func (t *Thread) Yield() {
	if t.stopping {
		panic(stopped{})
	}
	t.report <- event{}
	if !<-t.grant {
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
	if t.grant != nil {
		t.stopping = true
		t.switchTo(false)
	}
}

// Done reports whether the body has returned, panicked or been stopped.
func (t *Thread) Done() bool { return t.done }
