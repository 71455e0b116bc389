package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/eventq"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/memsim"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// deepHorizon is the virtual time, in ns, of each full-machine run: long
// enough for flat tkt, which collapses at 1024 vCPUs, to complete dozens of
// critical sections.
const deepHorizon = 2_000_000

// deepLock is one lock the deep-1024 workload runs.
type deepLock struct {
	name string
	mk   func() lockapi.Lock
}

// deepRun is one full-machine run's outcome.
type deepRun struct {
	setup, run  time.Duration
	events, ops uint64
	parks       uint64
	iters       uint64
	// Filled by traced runs only.
	rmw    uint64
	grants []grant
}

// grant is one simulated operation of the trace: its completion time and CPU.
type grant struct {
	t   int64
	cpu int32
}

// deepOnce builds the machine, spawns one virtual thread per vCPU in the given
// order, and runs the horizon. With tr set it captures the operation stream.
func deepOnce(b *bench, mach *topo.Machine, dl deepLock, order []int, tr *tracer, parent int) (deepRun, error) {
	var r deepRun
	// The previous machine's 1024 goroutine stacks and sharer sets are
	// garbage now; collect them outside the timed set-up.
	runtime.GC()
	sid := tr.begin("memsim.setup", parent)
	t0 := time.Now()
	l := dl.mk()
	cfg := memsim.Config{Machine: mach, Seed: b.seed}
	if tr != nil {
		cfg.Trace = func(ev memsim.TraceEvent) {
			r.grants = append(r.grants, grant{t: ev.Time, cpu: int32(ev.CPU)})
			switch ev.Op {
			case "cas", "cas!", "add", "swap":
				r.rmw++
			}
		}
	}
	m := memsim.New(cfg)
	var shared lockapi.Cell
	// Virtual threads run one at a time, so a plain variable suffices for the
	// occupancy oracle.
	occupancy, overlaps := 0, 0
	procs := make([]*memsim.Proc, 0, len(order))
	for _, cpu := range order {
		ctx := l.NewCtx()
		procs = append(procs, m.Spawn(cpu, func(p *memsim.Proc) {
			for !p.Expired() {
				l.Acquire(p, ctx)
				if occupancy++; occupancy != 1 {
					overlaps++
				}
				p.Add(&shared, 1, lockapi.Relaxed)
				p.Work(50)
				occupancy--
				l.Release(p, ctx)
				p.Work(200)
			}
		}))
	}
	r.setup = time.Since(t0)
	tr.end(sid)

	rid := tr.begin("memsim.run", parent)
	t1 := time.Now()
	res := m.Run(deepHorizon)
	r.run = time.Since(t1)
	tr.end(rid)

	r.events = res.Events
	for _, p := range procs {
		r.ops += p.Ops
		r.parks += p.Parks
	}
	r.iters = shared.Raw().Load()
	if !b.checks.check(overlaps == 0) {
		b.checks.failf("deep-1024 %s: %d critical sections overlapped", dl.name, overlaps)
	}
	if !b.checks.check(!res.Deadlock) {
		b.checks.failf("deep-1024 %s: deadlock, parked CPUs %v", dl.name, res.ParkedCPUs)
	}
	if r.ops == 0 || r.events == 0 {
		return r, fmt.Errorf("%s: no operations simulated", dl.name)
	}
	return r, nil
}

// spawnOrder is the seed's permutation of the CPUs: the order threads are
// spawned in, which decides who wins ties at time 0 and so the schedule.
func spawnOrder(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := xrand.New(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// replayGrants times the traced operation stream through eventq.Queue as the
// scheduler's slow path would drive it: every CPU waits in the queue at the
// time of its next operation, and each grant pops the earliest entry and
// requeues that CPU at its following operation in one PushPop. It returns
// host ns per queue operation and the deepest the queue got.
func replayGrants(gs []grant) (nsPerOp float64, depthMax int) {
	// next[i] is the index of the same CPU's following operation, -1 if none.
	next := make([]int, len(gs))
	seen := map[int32]int{}
	for i := len(gs) - 1; i >= 0; i-- {
		next[i] = -1
		if j, ok := seen[gs[i].cpu]; ok {
			next[i] = j
		}
		seen[gs[i].cpu] = i
	}
	firsts := make([]int, 0, len(seen))
	for i := range gs {
		if seen[gs[i].cpu] == i {
			firsts = append(firsts, i)
		}
	}

	var q eventq.Queue[int]
	t0 := time.Now()
	for _, i := range firsts {
		q.Push(gs[i].t, i)
	}
	depthMax = q.Len()
	ops := len(firsts) + 1
	_, i, ok := q.Pop()
	for ok {
		if n := next[i]; n >= 0 {
			_, i = q.PushPop(gs[n].t, n)
		} else {
			_, i, ok = q.Pop()
		}
		ops++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), depthMax
}

// The deep-1024 probe runs the machine pair deepUnits times untraced, for
// its host rates, then deepTracedUnits times traced, for the operation
// stream the eventq replay rung and the park and RMW counts come from.
const (
	deepUnits       = 9
	deepTracedUnits = 2
)

// deepProbe measures deep-1024 inside compose-armv8's traced run. Its host
// times are too sensitive to other tenants' load for an end-to-end bound
// (1024 goroutine stacks outgrow the core's cache, and a busy host's shared
// cache slowed it by 1.4-1.9x for minutes at a time), so its figures are
// per-layer metrics, which carry none.
func deepProbe(b *bench) error {
	defer oneCPU()()
	mach := topo.DeepServer1024()
	h := topo.DeepHierarchy(mach)
	tkt := locks.MustType("tkt")
	lks := []deepLock{
		{"tkt", tkt.New},
		{"clof", func() lockapi.Lock { return clof.Must(h, clof.Composition{tkt, tkt, tkt, tkt}) }},
	}
	order := spawnOrder(mach.NumCPUs(), b.seed)

	// unit runs both locks once. Every unit must repeat the first one's
	// simulations exactly.
	var first []deepRun
	unit := func(tr *tracer) ([]deepRun, error) {
		uid := tr.begin("deep.unit", -1)
		defer tr.end(uid)
		var rs []deepRun
		for i, dl := range lks {
			r, err := deepOnce(b, mach, dl, order, tr, uid)
			if err != nil {
				return nil, err
			}
			if first != nil {
				f := first[i]
				if !b.checks.check(r.events == f.events && r.ops == f.ops && r.iters == f.iters) {
					b.checks.failf("deep-1024 %s: unit simulated %d events/%d ops/%d iterations, first unit %d/%d/%d",
						dl.name, r.events, r.ops, r.iters, f.events, f.ops, f.iters)
				}
			}
			rs = append(rs, r)
		}
		if first == nil {
			first = rs
		}
		return rs, nil
	}

	var setups, runs []float64
	for i := 0; i < deepUnits; i++ {
		rs, err := unit(nil)
		if err != nil {
			return err
		}
		setups = append(setups, (rs[0].setup + rs[1].setup).Seconds())
		runs = append(runs, (rs[0].run + rs[1].run).Seconds())
	}
	tr := newTracer()
	var parks, rmw uint64
	var replayNS []float64
	depthMax := 0
	for i := 0; i < deepTracedUnits; i++ {
		rs, err := unit(tr)
		if err != nil {
			return err
		}
		if i > 0 {
			continue
		}
		for _, r := range rs {
			parks += r.parks
			rmw += r.rmw
			for j := 0; j < 5; j++ {
				rid := tr.begin("eventq.replay", -1)
				ns, depth := replayGrants(r.grants)
				tr.end(rid)
				replayNS = append(replayNS, ns)
				depthMax = max(depthMax, depth)
			}
		}
	}

	var events, ops uint64
	for i, r := range first {
		events += r.events
		ops += r.ops
		b.set("sim_iter_per_us."+lks[i].name, float64(r.iters)/(deepHorizon/1e3))
		b.exact["deep1024.iters."+lks[i].name] = r.iters
		b.exact["deep1024.events."+lks[i].name] = r.events
		b.exact["deep1024.sim_ops."+lks[i].name] = r.ops
	}
	run := fastQuartile(runs)
	b.set("simops_per_s.deep1024", float64(ops)/run)
	b.set("memsim.events.deep1024", float64(events))
	b.set("memsim.sim_ops", float64(ops))
	b.set("memsim.setup_s", fastQuartile(setups))
	b.set("memsim.run_s", run)
	b.set("memsim.ns_per_event", run*1e9/float64(events))
	b.set("memsim.park", float64(parks)/float64(ops))
	b.set("memsim.rmw", float64(rmw)/float64(ops))
	b.set("eventq.replay_ns_per_op", median(replayNS))
	b.set("eventq.depth_max", float64(depthMax))
	b.logf("deep-1024 probe: %d untraced and %d traced units, horizon %d ns", deepUnits, deepTracedUnits, deepHorizon)
	tr.writeSpans(b.log)
	return nil
}

// setLockMetrics reports the lock layer from an obs report, in simulated ns.
// A handover is local when it stays within one cache group: the same CPU
// re-acquiring, or the next owner sharing the core or the cache group.
func setLockMetrics(b *bench, rep obs.Report) {
	b.set("lock.acquisitions", float64(rep.Acquisitions))
	b.set("lock.wait_ns_p50", float64(rep.AcquireLatency.P50))
	b.set("lock.wait_ns_p99", float64(rep.AcquireLatency.P99))
	b.set("lock.hold_ns_p50", float64(rep.Hold.P50))
	local := rep.Handover.Self
	for _, lc := range rep.Handover.Levels {
		if lc.Level == topo.Core.String() || lc.Level == topo.CacheGroup.String() {
			local += lc.Count
		}
	}
	if total := rep.Handover.Self + rep.Handover.Crossings; total > 0 {
		b.set("lock.handover_local_frac", float64(local)/float64(total))
	}
}
