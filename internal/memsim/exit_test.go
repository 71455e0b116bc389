package memsim

import (
	"testing"

	"github.com/clof-go/clof/internal/leakcheck"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/topo"
)

// TestRunExitPathsReleaseThreads: whichever way Run ends — the queue
// drains, the horizon cuts threads off mid-body, the machine deadlocks, or
// a workload panics before its siblings ever run — every virtual CPU's
// goroutine is gone once Run returns (or its panic is recovered).
func TestRunExitPathsReleaseThreads(t *testing.T) {
	contend := func(m *Machine, n int, iters int) {
		l := locks.NewMCS()
		var shared lockapi.Cell
		for i := 0; i < n; i++ {
			ctx := l.NewCtx()
			m.Spawn(i, func(p *Proc) {
				for k := 0; iters == 0 || k < iters; k++ {
					if p.Expired() {
						return
					}
					l.Acquire(p, ctx)
					p.Add(&shared, 1, lockapi.Relaxed)
					l.Release(p, ctx)
				}
			})
		}
	}
	for _, tc := range []struct {
		name string
		run  func() Result
		want func(Result) bool
	}{
		{"drained", func() Result {
			m := New(Config{Machine: topo.X86Server()})
			contend(m, 8, 20)
			return m.Run(0)
		}, func(r Result) bool { return !r.Deadlock }},
		{"horizon", func() Result {
			// No Expired check: the horizon leaves every thread suspended.
			m := New(Config{Machine: topo.X86Server()})
			var c lockapi.Cell
			for i := 0; i < 8; i++ {
				m.Spawn(i, func(p *Proc) {
					for {
						p.Add(&c, 1, lockapi.Relaxed)
					}
				})
			}
			return m.Run(5_000)
		}, func(r Result) bool { return !r.Deadlock && r.Now == 5_000 }},
		{"horizon-no-runahead", func() Result {
			m := New(Config{Machine: topo.X86Server(), DisableRunAhead: true})
			contend(m, 8, 0)
			return m.Run(5_000)
		}, func(r Result) bool { return !r.Deadlock && r.Now == 5_000 }},
		{"deadlock", func() Result {
			m := New(Config{Machine: topo.X86Server()})
			var flag lockapi.Cell
			for i := 0; i < 4; i++ {
				m.Spawn(i, func(p *Proc) {
					for p.Load(&flag, lockapi.Acquire) == 0 {
						p.Spin()
					}
				})
			}
			return m.Run(0)
		}, func(r Result) bool { return r.Deadlock && len(r.ParkedCPUs) == 4 }},
		{"panic-before-siblings-start", func() Result {
			m := New(Config{Machine: topo.X86Server()})
			m.Spawn(0, func(*Proc) { panic("first") })
			contend(m, 4, 0)
			defer func() {
				if r := recover(); r != "first" {
					t.Errorf("recovered %v, want the workload's panic value", r)
				}
			}()
			m.Run(0)
			t.Error("Run did not propagate the workload panic")
			return Result{}
		}, func(Result) bool { return true }},
		{"panic-mid-run", func() Result {
			m := New(Config{Machine: topo.X86Server()})
			contend(m, 4, 0)
			m.Spawn(8, func(p *Proc) {
				p.Work(2_000)
				panic("late")
			})
			defer func() {
				if r := recover(); r != "late" {
					t.Errorf("recovered %v, want the workload's panic value", r)
				}
			}()
			m.Run(0)
			t.Error("Run did not propagate the workload panic")
			return Result{}
		}, func(Result) bool { return true }},
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
