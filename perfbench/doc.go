// Command perfbench is the repository's benchmark: one program, two
// closed-loop workloads, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one.
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds this module (which imports the repository through a replace
// directive) into .bench_build/ and runs it from the checkout's root. The
// program reads the metric names and units from BENCHMARK.json, measures the
// workload for S seconds, checks every output it can, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// attempted and failed count the workload's correctness checks. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, 0 for a layer the workload does not exercise. Standard
// error carries the run's exact simulated statistics ("exact {...}": memsim
// events and operations, a digest of every sweep point's completed
// iterations, mcheck states and executions), so two runs of one seed, or a
// simulator-only change, can be compared for identity; traced runs add the
// span summary ("spans {...}": count, total and self time per layer call).
//
// All timing is taken from outside the program, around calls into its
// packages; nothing inside the repository is instrumented. "Host" time is
// what the machine running the benchmark takes; "sim" time is virtual time
// inside memsim. The simulator's cost model is validated only against the
// paper's Table 2 (table2_err, compose-armv8); every other simulated figure
// comes from an unvalidated model. The BENCH_*.json files at the root are
// older memsim microbenchmark records and are not part of this benchmark.
//
// # Workloads
//
// At most two load threads or exp.Runner jobs run at once (the host has two
// CPUs); the deep-1024 and verify probes, whose simulators run one virtual
// thread at a time, run the Go scheduler on one CPU (oneCPU, main.go). Each
// workload repeats a unit of work until the window has passed, collecting
// garbage before every unit outside its timing. Set-up is repeated and its
// fast quartile (the 25th percentile, fastQuartile in probe.go) reported, and
// so are repeated timings of one piece of work (a sweep, a sweep point, a
// deep-1024 machine pair, a model-checking case): on a shared host, other tenants' load comes in
// episodes of seconds that slow every unit they cover by 30-50%, and when
// they cover most of a run they carry its median with them. One helper
// (bench.phases) drives every workload's untraced and traced phases.
//
// compose-armv8: the paper's scripted benchmark (§4.3). All 256 4-level
// compositions of {tkt, mcs, clh, hem} on topo.Armv8Server run (a) as the
// global lock of workload.LevelDB at 1, 8, 32 and 127 threads and (b) as the
// shard lock of a 16-shard workload.RunKV store at 32 threads under the
// read-mostly and write-heavy mixes (50 µs virtual horizon), on exp.Runner
// with one job per CPU. One sweep is the unit; the seed is the spec's base
// seed. The Table 2 ping-pong (discover.Speedups) on both paper machines is
// deterministic, so it runs once per run, after the measuring phases. Chosen because its thousands of short points stress the exp engine,
// per-point set-up and the run-ahead fast path (a 1-thread point never leaves
// it), while the 127-thread points show the slow path at paper scale and the
// two mixes use the lock layer in two ways. Oracle: every exclusion, shared
// and torn-read violation counter is zero, no point fails, and an observed
// rerun of the HC-best point repeats the sweep's iteration count. The HC-best
// and LC-best compositions are written to stderr with every run.
//
// The deep-1024 probe runs inside compose-armv8's traced run only: every
// vCPU of topo.DeepServer1024 (Armv8, 4 levels) loops acquire → Add →
// Work(50) → release → Work(200) on one lock for 2 ms of virtual time, once
// with flat tkt and once with clof:tkt-tkt-tkt-tkt over topo.DeepHierarchy;
// the pair is the unit, run 9 times untraced and twice traced. memsim is
// driven directly (New/Spawn/Run). The seed permutes the spawn order, which
// decides ties at time 0 and so the schedule. Chosen because memsim's
// slow-path grant, 1024 virtual-thread goroutines and multi-word sharer sets
// dominate here, with no exp or workload overhead: simops_per_s.deep1024 is
// the simops/s-at-1024 number. It was a workload of its own, dropped for
// instability: its 1024 goroutine stacks outgrow the core's cache, and on a
// 2-vCPU shared host other tenants' load slowed it by 1.4-1.9x for minutes at
// a time, so sets of ten runs spread by 27-38% on every host time, past the
// largest end-to-end bound (0.25). As per-layer metrics its figures carry no
// bound. Oracle (counted in compose-armv8's traced run): an occupancy
// counter inside every critical section, no deadlock, and every unit
// repeating the first unit's events, operations and iterations. The shared
// counter is bumped with an atomic Add, as the workload prescribes, so it
// counts iterations but cannot convict a lock; the occupancy counter does
// that.
//
// The verify probe also runs inside compose-armv8's traced run only, after
// the deep-1024 probe: mcheck on a fixed set: LockProgram 2 threads × 2
// iterations for tkt, mcs, clh and hem under SC and WMM; the 3-thread CLoF
// induction step InductionProgram(1, false, "tkt", "tkt") searched
// exhaustively and with POR; a ticket lock missing its release barrier (WMM)
// and a CLoF composition releasing its levels in the wrong order (SC), both
// of which must be convicted. It makes two passes over the set in a fixed
// order; the set has no random input, so the seed is not used. Chosen
// because it is all mcheck execution, replay and fingerprinting, with no
// memsim, and because verifying a composition is the paper's step before
// benchmarking it. It was a workload of its own, dropped for instability:
// over two sets of ten 30 s runs on a 2-vCPU shared host a pass drifted
// between 3.7 and 5.7 s with the host's load, a spread of 22-28% of the
// median. Oracle: the expected-verdict matrix, and identical state and
// execution counts on both passes.
//
// serve: the native store: store.OpenKV with 16 hash shards and
// seq:clof:tkt-tkt-tkt-tkt shard locks, preloaded with 100k keys and
// 100-byte values (set-up), then two closed-loop client goroutines issuing a
// Zipfian (θ = 0.99) mix of 75% Get, 20% Put and 5% Scan of up to 50 keys.
// The unit is a freshly preloaded store serving one window of operations (a
// store slows as its memtable grows, so each phase gets its own). Chosen
// because it is the only workload on the
// real goroutine path through store → seqlock → clof → locks, where the
// lock-wrapper capability refactor lands; the simulators are idle. Oracle:
// every value embeds its key; each Get and every Scan result must match its
// key, and scans must be ascending, in range and complete.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric, so these are defined per
// workload on its own unit of work:
//
//   - setup_s: the fast quartile of repeated set-ups (compose: building and
//     validating the grid, at the start and again before every sweep, so the
//     rounds spread over the whole run; serve: open + preload).
//   - max_rss_mb: the process's peak resident set size.
//   - pass_frac: 1 − failed checks ÷ checks attempted (fail_frac, reported
//     per layer, is its complement; a metric that is 0 has no relative bound).
//   - throughput_per_s: compose: sweep points per second of the
//     fast-quartile sweep; serve: store operations per second.
//   - latency_ms: host time of one unit. compose: one point, the median over
//     the points of each point's fast quartile over the sweeps; serve: one
//     operation, the median.
//
// The workload-specific headline numbers are per-layer metrics, measured in
// the untraced half of a traced run: simops_per_s.deep1024,
// sim_iter_per_us.tkt and sim_iter_per_us.clof (the deep-1024 probe);
// points_per_s, simops_per_s (memsim events per
// host second), best_iter_per_us (the HC-best composition at 127 threads) and
// table2_err (the largest |measured ÷ paper − 1| over Table 2) (compose);
// verify_s (the verify probe: one pass, the sum of each case's fast quartile
// over the passes); ops_per_s, get_p50_us, get_p99_us, put_p50_us and
// put_p99_us (serve).
//
// # Per-layer metrics and the end-to-end metric each should move
//
//   - memsim.setup_s, memsim.run_s and memsim.ns_per_event (deep-1024 probe,
//     fast quartile of the untraced units) → simops_per_s.deep1024.
//     memsim.ns_per_event.t1, .t8, .t32, .t127 → points_per_s (compose); t1
//     is pure run-ahead, so a change to the grant path should move t127 and
//     leave t1 alone. memsim.events (compose's sweep), memsim.events.deep1024
//     and memsim.sim_ops (the probe) are exact and must not change under a
//     simulator-only change. memsim.park and memsim.rmw per simulated
//     operation (the probe) explain
//     ns_per_event: park from Proc.Parks, RMWs from Config.Trace. memsim emits
//     no trace event for a park or a wake, so wakes are not reported.
//   - eventq.replay_ns_per_op, eventq.depth_max: the traced deep-1024
//     operation stream replayed through eventq.Queue's Push/Pop/PushPop →
//     simops_per_s.deep1024. It would move little on compose's own points,
//     whose queue holds at most 128 entries.
//   - lock.acquisitions, lock.wait_ns_p50, lock.wait_ns_p99, lock.hold_ns_p50,
//     lock.handover_local_frac (sim ns, lockapi.Instrument + obs.Collector;
//     local = same CPU, core or cache group), from compose's HC-best point
//     rerun observed → best_iter_per_us and points_per_s (compose).
//   - workload.run_s.leveldb, workload.run_s.kv (median per point) →
//     points_per_s. workload.violations → pass_frac.
//   - exp.points, exp.point_ms_p50, exp.point_ms_max, exp.parallel_eff
//     (Σ point wall time ÷ (sweep wall time × jobs)) → points_per_s.
//   - discover.speedup_err.x86, discover.speedup_err.armv8 → table2_err.
//   - mcheck.states, mcheck.executions (exact), mcheck.states_per_s,
//     mcheck.us_per_execution, mcheck.s.sc, mcheck.s.wmm, mcheck.s.por →
//     verify_s (the verify probe). states_per_s is a layer metric
//     only: a better reduction lowers it while verify_s improves.
//   - store.occ.success_frac (validated ÷ optimistic attempts),
//     store.occ.fallback_frac (reads that fell back to the lock ÷ reads taking
//     the optimistic path) → get_p99_us. store.scan_p99_us → ops_per_s.
//     store.preload_s (serve's set-up, as setup_s) → setup_s (serve).
//   - kvstore.compactions, kvstore.runs → put_p99_us.
//   - host.gc_cpu_frac, host.gc_cycles, host.alloc_bytes_per_op,
//     host.sched_lat_p99_us, host.goroutines_max (runtime/metrics, read at the
//     traced phase's ends; goroutines at every span boundary) →
//     points_per_s, get_p99_us and max_rss_mb on every workload (compose:
//     its traced sweeps, before the probes).
//   - bench.trace_overhead_frac: median traced ÷ median untraced host time per
//     unit of work − 1 (serve: per operation).
//
// Other timings are reported as a median; a tail is the highest percentile
// with at least ten samples beyond it (serve logs it with the sample count),
// except the named p99s, which always have more than a thousand samples.
//
// # Predicted effects of the planned changes
//
// A coroutine execution core should move the deep-1024 and verify probes,
// and t127 but not t1 on compose-armv8, and leave serve unchanged. The lock capability
// refactor should move at most serve's p50s. Running the real store on memsim
// should move workload.run_s.kv only.
package main
