package mcheck

import (
	"testing"

	"github.com/clof-go/clof/internal/leakcheck"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
)

// TestCheckExitPathsReleaseThreads: every way a check ends — exhaustive
// verification, a found violation, a deadlock, the depth and state
// budgets, the reduced search, a guided run — stops every thread of every
// replay, so no goroutine outlives Check.
func TestCheckExitPathsReleaseThreads(t *testing.T) {
	spinForever := Program{
		Name: "spin-forever",
		Make: func() []func(p *Proc) {
			var c lockapi.Cell
			body := func(p *Proc) {
				for {
					p.Add(&c, 1, lockapi.Relaxed)
				}
			}
			return []func(p *Proc){body, body}
		},
	}
	for _, tc := range []struct {
		name string
		run  func() Result
		want func(Result) bool
	}{
		{"verified", func() Result {
			return Check(LockProgram("mcs", 2, 1, func() lockapi.Lock { return locks.NewMCS() }), Config{Mode: SC})
		}, func(r Result) bool { return r.OK }},
		{"violation", func() Result {
			return Check(BrokenTicketProgram(2, 1), Config{Mode: WMM})
		}, func(r Result) bool { return !r.OK && r.Violation != "" }},
		{"deadlock", func() Result {
			return Check(DeadlockProgram("ab-ba", [][]string{{"a", "b"}, {"b", "a"}}), Config{Mode: SC})
		}, func(r Result) bool { return !r.OK && r.Violation != "" }},
		{"depth-limit", func() Result {
			return Check(spinForever, Config{Mode: SC, MaxDepth: 20, MaxStates: 1 << 20})
		}, func(r Result) bool { return !r.OK && r.Violation != "" }},
		{"state-budget", func() Result {
			return Check(LockProgram("tkt", 3, 2, func() lockapi.Lock { return locks.NewTicket() }), Config{Mode: TSO, MaxStates: 50})
		}, func(r Result) bool { return r.Truncated }},
		{"por", func() Result {
			return Check(LockProgram("tkt", 2, 1, func() lockapi.Lock { return locks.NewTicket() }), Config{Mode: SC, POR: true})
		}, func(r Result) bool { return r.OK && r.Reduced }},
		{"guided-truncated", func() Result {
			return CheckGuided(spinForever, Config{Mode: SC, MaxDepth: 30}, RoundRobin())
		}, func(r Result) bool { return r.Truncated }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t, func() {
				if res := tc.run(); !tc.want(res) {
					t.Errorf("unexpected result %+v", res)
				}
			})
		})
	}
}

// TestBodyPanicReachesCaller: a panic in a program body — while the
// threads are being primed, or after some schedule steps — surfaces from
// Check (and CheckGuided) as a recoverable panic carrying the body's own
// value, and the sibling threads are stopped.
func TestBodyPanicReachesCaller(t *testing.T) {
	type boom struct{ where string }
	prog := func(afterOps int) Program {
		return Program{
			Name: "panicky",
			Make: func() []func(p *Proc) {
				var c lockapi.Cell
				quiet := func(p *Proc) {
					for i := 0; i < 4; i++ {
						p.Add(&c, 1, lockapi.Relaxed)
					}
				}
				loud := func(p *Proc) {
					for i := 0; i < afterOps; i++ {
						p.Add(&c, 1, lockapi.Relaxed)
					}
					panic(boom{"body"})
				}
				return []func(p *Proc){quiet, loud, quiet}
			},
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"priming", func() { Check(prog(0), Config{Mode: SC}) }},
		{"mid-schedule", func() { Check(prog(2), Config{Mode: TSO}) }},
		{"mid-schedule-por", func() { Check(prog(2), Config{Mode: SC, POR: true}) }},
		{"guided", func() { CheckGuided(prog(2), Config{Mode: SC}, RoundRobin()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t, func() {
				defer func() {
					if r := recover(); r != (boom{"body"}) {
						t.Errorf("recovered %v, want the body's panic value", r)
					}
				}()
				tc.run()
				t.Error("the body's panic did not reach the caller")
			})
		})
	}
}
