package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/discover"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/obs"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/workload"
	"github.com/clof-go/clof/internal/xrand"
)

// composeThreads is the LevelDB contention grid: 1 thread never leaves the
// simulator's run-ahead fast path, 127 is the paper machine's full scale.
var composeThreads = []int{1, 8, 32, 127}

// The sharded-store points: 16 shards at 32 threads, over a shorter virtual
// horizon than LevelDB's so the whole sweep fits in a run several times.
const (
	composeKVShards  = 16
	composeKVThreads = 32
	composeKVHorizon = 50_000
)

// paperTable2 is the paper's Table 2: ping-pong speedup of each cohort level
// over the system level. It is the only reference the model is checked
// against.
var paperTable2 = map[string]map[topo.Level]float64{
	"x86":   {topo.System: 1.00, topo.Package: 1.54, topo.NUMA: 1.54, topo.CacheGroup: 9.07, topo.Core: 12.18},
	"armv8": {topo.System: 1.00, topo.Package: 1.76, topo.NUMA: 2.98, topo.CacheGroup: 7.04},
}

// composePoint is one grid point: a composition as the global LevelDB lock
// at some thread count, or as the shard lock of the store under a mix.
type composePoint struct {
	comp    clof.Composition
	threads int
	mix     *store.Mix // nil for LevelDB points
}

// pointRecord is what one point measured; each point writes only its own.
type pointRecord struct {
	total, events, violations uint64
	wall                      time.Duration
}

// composeGrid builds the sweep: every 4-level composition of the Armv8 basic
// locks, each instantiated once to validate it, at every LevelDB thread count
// and under both store mixes.
func composeGrid(h *topo.Hierarchy, seed uint64) (exp.Spec, []composePoint) {
	comps := clof.Generate(locks.BasicLocks(h.Machine.Arch), h.Depth())
	mixes := []store.Mix{store.ReadMostly, store.WriteHeavy}
	spec := exp.Spec{
		Name:      "perfbench-compose",
		Platform:  h.Machine.Arch.String(),
		Hierarchy: h.String(),
		Workload:  "leveldb+kv",
		Threads:   composeThreads,
		Seed:      seed,
	}
	var pts []composePoint
	for _, c := range comps {
		clof.Must(h, c)
		spec.Locks = append(spec.Locks, c.String())
		for _, n := range composeThreads {
			pts = append(pts, composePoint{comp: c, threads: n})
		}
		for i := range mixes {
			pts = append(pts, composePoint{comp: c, threads: composeKVThreads, mix: &mixes[i]})
		}
	}
	return spec, pts
}

func (pt composePoint) key() string {
	if pt.mix == nil {
		return fmt.Sprintf("leveldb/comp=%s/threads=%d", pt.comp, pt.threads)
	}
	return fmt.Sprintf("kv-%s/comp=%s/threads=%d", pt.mix.Name, pt.comp, pt.threads)
}

// measurePoint runs one point on its own simulator.
func measurePoint(h *topo.Hierarchy, pt composePoint, seed uint64, rec *pointRecord, tr *tracer, parent int) exp.Sample {
	mk := func() lockapi.Lock { return clof.Must(h, pt.comp) }
	var res workload.Result
	var err error
	t0 := time.Now()
	if pt.mix == nil {
		id := tr.begin("workload.run.leveldb", parent)
		cfg := workload.LevelDB(h.Machine, pt.threads)
		cfg.Seed = seed
		res, err = workload.Run(mk, cfg)
		tr.end(id)
	} else {
		id := tr.begin("workload.run.kv", parent)
		var kr workload.KVResult
		kr, err = workload.RunKV(workload.KVConfig{
			Machine: h.Machine, Threads: pt.threads, Shards: composeKVShards,
			NewShardLock: mk, Horizon: composeKVHorizon,
			Mix: *pt.mix, Dist: store.DistZipfian, Seed: seed,
		})
		tr.end(id)
		res = kr.Result
		rec.violations += kr.SharedViolations + kr.TornReads
	}
	rec.wall = time.Since(t0)
	if err != nil {
		return exp.Sample{Err: err.Error()}
	}
	rec.total, rec.events = res.Total, res.Events
	rec.violations += res.ExclusionViolations
	return exp.Sample{Throughput: res.ThroughputOpsPerUs(), Jain: res.Jain(), Total: res.Total}
}

// sweepResult is one full sweep's outcome.
type sweepResult struct {
	wall    time.Duration
	recs    []pointRecord
	results []exp.Result
	sel     clof.Selection
}

func runSweep(b *bench, h *topo.Hierarchy, spec exp.Spec, pts []composePoint, tr *tracer) (sweepResult, error) {
	sr := sweepResult{recs: make([]pointRecord, len(pts))}
	id := tr.begin("exp.run", -1)
	points := make([]exp.Point, len(pts))
	for i, pt := range pts {
		rec := &sr.recs[i]
		points[i] = exp.Point{Key: pt.key(), Run: func(seed uint64) exp.Sample {
			return measurePoint(h, pt, seed, rec, tr, id)
		}}
	}
	runner := &exp.Runner{Jobs: runtime.NumCPU()}
	t0 := time.Now()
	sr.results = runner.Run(spec, points)
	sr.wall = time.Since(t0)
	tr.end(id)

	var ms []clof.Measurement
	for i, r := range sr.results {
		pt := pts[i]
		if !b.checks.check(len(r.Errors) == 0) {
			b.checks.failf("compose %s: %v", r.Key, r.Errors)
		}
		if !b.checks.check(sr.recs[i].violations == 0) {
			b.checks.failf("compose %s: %d exclusion/shared/torn violations", r.Key, sr.recs[i].violations)
		}
		if pt.mix != nil {
			continue
		}
		if len(ms) == 0 || !sameComp(ms[len(ms)-1].Comp, pt.comp) {
			ms = append(ms, clof.Measurement{Comp: pt.comp})
		}
		last := &ms[len(ms)-1]
		last.Points = append(last.Points, clof.Point{Threads: pt.threads, Throughput: r.Throughput()})
	}
	sel, err := clof.Select(ms)
	if err != nil {
		return sr, err
	}
	sr.sel = sel
	return sr, nil
}

// table2Errs runs the Table 2 ping-pong on both paper machines and returns
// each one's error against the paper. The result is deterministic, so a run
// measures it once.
func table2Errs(tr *tracer) map[string]float64 {
	errs := map[string]float64{}
	for _, pl := range []struct {
		name string
		m    *topo.Machine
	}{{"x86", topo.X86Server()}, {"armv8", topo.Armv8Server()}} {
		id := tr.begin("discover.speedups", -1)
		sp := discover.Speedups(pl.m, discover.DefaultHorizon)
		tr.end(id)
		errs[pl.name] = table2Err(sp, paperTable2[pl.name])
	}
	return errs
}

// sweepDigest hashes every point's completed iterations and simulated events.
func sweepDigest(pts []composePoint, recs []pointRecord) string {
	h := fnv.New64a()
	for i, rec := range recs {
		fmt.Fprintf(h, "%s %d %d\n", pts[i].key(), rec.total, rec.events)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sameComp(a, b clof.Composition) bool { return a.String() == b.String() }

// table2Err is the largest |measured ÷ paper − 1| over the paper's levels. A
// machine with one NUMA node per package has no package-distinct pairs; the
// paper's note gives the NUMA value for both rows, so the NUMA measurement
// stands in for the package one.
func table2Err(measured, paper map[topo.Level]float64) float64 {
	worst := 0.0
	for lvl, want := range paper {
		got, ok := measured[lvl]
		if !ok && lvl == topo.Package {
			got, ok = measured[topo.NUMA]
		}
		if !ok {
			continue
		}
		worst = math.Max(worst, math.Abs(got/want-1))
	}
	return worst
}

// scoreAt is a measurement's throughput at n threads.
func scoreAt(m clof.Measurement, n int) float64 {
	for _, p := range m.Points {
		if p.Threads == n {
			return p.Throughput
		}
	}
	return 0
}

func runCompose(b *bench) error {
	h := topo.ArmHierarchy4()
	var spec exp.Spec
	var pts []composePoint
	// One grid allocates about 3.6 MB, less than the collector's smallest
	// heap goal, so timing single builds from a collected heap keeps the
	// collector, which competes with the host's other load, out of the time.
	build := func() { spec, pts = composeGrid(h, b.seed) }
	setups := timeSetup(nil, 21, build)

	var sweepS []float64
	pointMS := make([][]float64, len(pts))
	var first, last *sweepResult
	var digest string
	sweeps, tracedSweeps := 0, 0
	// The unit is one sweep; every sweep must repeat the first one's
	// simulations exactly.
	tr, err := b.phases(func(tr *tracer) (float64, error) {
		setups = timeSetup(setups, 10, build)
		sr, err := runSweep(b, h, spec, pts, tr)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first, digest = &sr, sweepDigest(pts, sr.recs)
		}
		if d := sweepDigest(pts, sr.recs); !b.checks.check(d == digest) {
			b.checks.failf("compose: sweep digest %s, first sweep %s", d, digest)
		}
		if tr != nil {
			tracedSweeps++
			last = &sr
			return 1, nil
		}
		sweeps++
		sweepS = append(sweepS, sr.wall.Seconds())
		for i, r := range sr.results {
			pointMS[i] = append(pointMS[i], r.WallMS)
		}
		return 1, nil
	})
	if err != nil {
		return err
	}
	var events uint64
	for _, rec := range first.recs {
		events += rec.events
	}
	var host map[string]float64
	if tr != nil {
		// host.* cover the traced sweeps only.
		host = tr.hostMetrics(float64(events) * float64(tracedSweeps))
	}
	b.set("setup_s", fastQuartile(setups))
	errs := table2Errs(tr)
	// A run holds few sweeps, so each point's time is its fast quartile
	// over the sweeps, and the sweep rate is the fast quartile's.
	pointFast := make([]float64, len(pts))
	for i, ms := range pointMS {
		pointFast[i] = fastQuartile(ms)
	}
	rate := float64(len(pts)) / fastQuartile(sweepS)
	b.set("throughput_per_s", rate)
	b.set("latency_ms", median(pointFast))
	b.set("points_per_s", rate)
	b.set("simops_per_s", float64(events)/first.wall.Seconds())
	b.set("best_iter_per_us", scoreAt(first.sel.HCBest, composeThreads[len(composeThreads)-1]))
	b.set("table2_err", math.Max(errs["x86"], errs["armv8"]))
	b.set("memsim.events", float64(events))
	b.exact["memsim.events"] = events
	b.exact["points"] = len(pts)
	b.exact["points.digest"] = digest
	b.exact["hc_best"] = first.sel.HCBest.Comp.String()
	b.exact["lc_best"] = first.sel.LCBest.Comp.String()
	b.exact["table2_err"] = errs
	b.logf("compose-armv8: %d untraced sweeps of %d points; HC-best %s, LC-best %s",
		sweeps, len(pts), first.sel.HCBest.Comp, first.sel.LCBest.Comp)
	if tr == nil {
		return nil
	}

	// Host ns per simulated event at each LevelDB thread count.
	wall := map[int]time.Duration{}
	evs := map[int]uint64{}
	var viol uint64
	var walls []float64
	var sumWallMS float64
	for i, rec := range last.recs {
		viol += rec.violations
		walls = append(walls, last.results[i].WallMS)
		sumWallMS += last.results[i].WallMS
		if pts[i].mix == nil {
			wall[pts[i].threads] += rec.wall
			evs[pts[i].threads] += rec.events
		}
	}
	for _, n := range composeThreads {
		b.set(fmt.Sprintf("memsim.ns_per_event.t%d", n), float64(wall[n].Nanoseconds())/float64(evs[n]))
	}
	b.set("workload.run_s.leveldb", median(tr.durations("workload.run.leveldb")))
	b.set("workload.run_s.kv", median(tr.durations("workload.run.kv")))
	b.set("workload.violations", float64(viol))
	b.set("exp.points", float64(len(pts)))
	b.set("exp.point_ms_p50", median(walls))
	b.set("exp.point_ms_max", quantile(walls, 1))
	b.set("exp.parallel_eff", sumWallMS/(float64(last.wall.Milliseconds())*float64(runtime.NumCPU())))
	b.set("discover.speedup_err.x86", errs["x86"])
	b.set("discover.speedup_err.armv8", errs["armv8"])
	setLockMetrics(b, observeBest(b, h, spec, *last, pts))
	b.setAll(host)
	tr.writeSpans(b.log)
	if err := deepProbe(b); err != nil {
		return err
	}
	return verifyProbe(b)
}

// observeBest reruns the HC-best composition's full-scale LevelDB point with
// an obs.Collector on the lock. Observation issues no simulated operations,
// so the rerun must repeat the sweep's point exactly; that is checked.
func observeBest(b *bench, h *topo.Hierarchy, spec exp.Spec, sr sweepResult, pts []composePoint) obs.Report {
	comp := sr.sel.HCBest.Comp
	pt := composePoint{comp: comp, threads: composeThreads[len(composeThreads)-1]}
	var want uint64
	for i, p := range pts {
		if p.mix == nil && p.threads == pt.threads && sameComp(p.comp, comp) {
			want = sr.recs[i].total
		}
	}
	coll := obs.NewCollector(h.Machine, obs.Options{Lock: comp.String()})
	cfg := workload.LevelDB(h.Machine, pt.threads)
	cfg.Seed = xrand.New(exp.PointSeed(spec, pt.key())).Uint64() // the engine's first-run seed
	cfg.Observer = coll
	res, err := workload.Run(func() lockapi.Lock { return clof.Must(h, comp) }, cfg)
	if !b.checks.check(err == nil && res.Total == want) {
		b.checks.failf("compose %s: observed rerun completed %d iterations, sweep %d (err %v)", pt.key(), res.Total, want, err)
	}
	return coll.Report()
}
