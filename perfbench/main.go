package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(*bench) error{
	"compose-armv8": runCompose,
	"serve":         runServe,
}

// bench is one benchmark run: its inputs, oracle and measured metrics.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	checks  checks
	metrics map[string]float64
	// exact holds the run's deterministic simulated statistics, written to
	// stderr with every run so two runs of a seed can be compared exactly.
	exact map[string]any
	log   io.Writer
}

// window is how long one measuring phase lasts. A traced run measures an
// untraced phase and a traced phase, half the time each, so it can report the
// tracing overhead.
func (b *bench) window() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setAll copies ms into the run's metrics.
func (b *bench) setAll(ms map[string]float64) {
	for k, v := range ms {
		b.metrics[k] = v
	}
}

// logf writes one diagnostic line to stderr.
func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

// phases runs a workload's measuring phases: unit repeated untraced for one
// window and, in a traced run, repeated with a tracer for another. unit
// returns the work it did (units, operations), and each call starts from a
// collected heap, so garbage the previous call left does not land in its
// time. phases sets bench.trace_overhead_frac from the median host time per
// unit of work of the two phases and returns the tracer, nil when untraced.
func (b *bench) phases(unit func(tr *tracer) (work float64, err error)) (*tracer, error) {
	// phase calls unit until the window has passed, at least once.
	phase := func(tr *tracer) ([]float64, error) {
		var per []float64
		for start := time.Now(); len(per) == 0 || time.Since(start) < b.window(); {
			runtime.GC()
			t0 := time.Now()
			work, err := unit(tr)
			if err != nil {
				return nil, err
			}
			per = append(per, time.Since(t0).Seconds()/work)
		}
		return per, nil
	}
	untraced, err := phase(nil)
	if err != nil || !b.traced {
		return nil, err
	}
	tr := newTracer()
	traced, err := phase(tr)
	if err != nil {
		return nil, err
	}
	b.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	return tr, nil
}

// oneCPU runs the Go scheduler on a single CPU until the returned function
// restores it. memsim and mcheck run one virtual thread at a time, handing
// control between goroutines at every simulated operation. With a second CPU
// idle, each handoff may wake that CPU, and on a shared virtual machine the
// cost of that wake-up follows the host's load, not the simulator: measured
// on a 2-vCPU host, deep-1024 ran 15-25% slower that way and spread twice as
// much between runs.
func oneCPU() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// timeSetup calls fn n times and appends the seconds each call took to per.
// Each call starts from a collected heap, so a collection the previous call
// left pending does not land in its time; a call that allocates less than
// the collector's 4 MB smallest heap goal runs no collection at all. A
// set-up of milliseconds measured only at the start of a run sees the host
// in one moment, so a workload calls this again before every unit and
// reports the fast quartile of all the calls.
func timeSetup(per []float64, n int, fn func()) []float64 {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		fn()
		per = append(per, time.Since(t0).Seconds())
	}
	return per
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the program reads: the metric
// names and units it must print are declared there and nowhere else.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON object. Untraced runs print every
// end-to-end metric, each of which every workload must have measured as a
// positive number; traced runs print every per-layer metric, 0 where the
// workload does not exercise that layer.
func (b *bench) result(m manifest) (result, error) {
	b.set("max_rss_mb", maxRSSMB())
	b.set("pass_frac", 1-b.checks.failFrac())
	b.set("fail_frac", b.checks.failFrac())
	declared := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, m.EndToEnd...), m.PerLayer...) {
		declared[s.Name] = true
	}
	var unknown []string
	for k := range b.metrics {
		if !declared[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return result{}, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", unknown)
	}
	specs := m.EndToEnd
	if b.traced {
		specs = m.PerLayer
	}
	r := result{
		Attempted: b.checks.attempted.Load(),
		Failed:    b.checks.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	for _, s := range specs {
		v, ok := b.metrics[s.Name]
		if !b.traced && (!ok || !(v > 0)) {
			return result{}, fmt.Errorf("end-to-end metric %s not measured (got %v)", s.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return r, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	manPath := fs.String("manifest", "BENCHMARK.json", "benchmark manifest declaring the metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	drive, ok := workloads[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	man, err := loadManifest(*manPath)
	if err != nil {
		return fail(err)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		metrics: map[string]float64{},
		exact:   map[string]any{},
		log:     stderr,
	}
	if err := drive(b); err != nil {
		return fail(fmt.Errorf("%s: %w", *name, err))
	}
	if exact, err := json.Marshal(b.exact); err == nil {
		fmt.Fprintf(stderr, "exact %s\n", exact)
	}
	for _, msg := range b.checks.failures() {
		fmt.Fprintln(stderr, "check failed:", msg)
	}
	res, err := b.result(man)
	if err != nil {
		return fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}
