package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host probe: everything the benchmark learns about the process it runs
// in. It is shared by all workloads and stays in memory until the run ends.

// checks counts the correctness oracle's verdicts. Workers may record
// concurrently.
type checks struct {
	attempted, failed atomic.Uint64
	mu                sync.Mutex
	first             []string // the first few failure messages, for stderr
}

// check records one verdict and returns it. Callers describe a failure
// with failf only when check returns false, so passing checks cost no
// formatting.
func (c *checks) check(ok bool) bool {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
	}
	return ok
}

// failf keeps the first few failure descriptions for stderr.
func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// failures returns the failure descriptions kept so far.
func (c *checks) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.first...)
}

// failFrac is failed checks ÷ checks attempted (0 when nothing was checked).
func (c *checks) failFrac() float64 {
	a := c.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(c.failed.Load()) / float64(a)
}

// span is one recorded call into a layer, in time since the tracer started.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
	// leaf is time covered by children too numerous to record one by one
	// (the serving workload's per-operation calls), which run sequentially
	// inside this span.
	leaf time.Duration
}

// tracer records spans around the benchmark's calls into each layer. A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	mu          sync.Mutex
	epoch       time.Time
	spans       []span
	goroutines  int // most goroutines seen at a span boundary
	hostAtStart hostSample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hostAtStart: readHost(), goroutines: runtime.NumGoroutine()}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	g := runtime.NumGoroutine()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.goroutines = max(t.goroutines, g)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	g := runtime.NumGoroutine()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.goroutines = max(t.goroutines, g)
	t.spans[id].end = now
}

// addLeaf charges d of sequential child time to span id.
func (t *tracer) addLeaf(id int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].leaf += d
	t.mu.Unlock()
}

// spanTotals is one span name's aggregate.
type spanTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize folds closed spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children running
// in parallel cover their union once.
func summarize(spans []span) map[string]spanTotals {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := map[string]spanTotals{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			c := spans[k]
			if c.end < 0 {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		dur := s.end - s.start
		self := dur - unionLen(iv) - s.leaf
		agg := out[s.name]
		agg.Count++
		agg.TotalS += dur.Seconds()
		agg.SelfS += max(self, 0).Seconds()
		out[s.name] = agg
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the lengths, in seconds, of the closed spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			ds = append(ds, (s.end - s.start).Seconds())
		}
	}
	return ds
}

// writeSpans writes the per-name span summary as one JSON line.
func (t *tracer) writeSpans(w io.Writer) {
	t.mu.Lock()
	sum := summarize(t.spans)
	t.mu.Unlock()
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(w, "spans: encode:", err)
		return
	}
	fmt.Fprintf(w, "spans %s\n", b)
}

// hostSample is one reading of the Go runtime's metrics.
type hostSample struct {
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
	allocBytes uint64
	schedLat   *metrics.Float64Histogram
}

var hostMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readHost() hostSample {
	ms := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return hostSample{
		gcCycles:   ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
		allocBytes: ms[3].Value.Uint64(),
		schedLat:   ms[4].Value.Float64Histogram(),
	}
}

// hostMetrics returns the host.* layer metrics accumulated since the tracer
// started; ops is the workload's operation count for the per-op ratio.
func (t *tracer) hostMetrics(ops float64) map[string]float64 {
	now := readHost()
	was := t.hostAtStart
	t.mu.Lock()
	goroutines := t.goroutines
	t.mu.Unlock()
	out := map[string]float64{
		"host.gc_cycles":        float64(now.gcCycles - was.gcCycles),
		"host.goroutines_max":   float64(goroutines),
		"host.sched_lat_p99_us": histDeltaQuantile(was.schedLat, now.schedLat, 0.99) * 1e6,
	}
	if cpu := now.totalCPU - was.totalCPU; cpu > 0 {
		out["host.gc_cpu_frac"] = (now.gcCPU - was.gcCPU) / cpu
	}
	if ops > 0 {
		out["host.alloc_bytes_per_op"] = float64(now.allocBytes-was.allocBytes) / ops
	}
	return out
}

// histDeltaQuantile is the q-quantile of the samples added between two
// readings of one runtime histogram: the upper edge of the bucket holding it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// tailQuantiles are the candidate tail percentiles, highest last.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailQuantile is the highest candidate percentile with at least ten of n
// samples beyond it; the median when n is too small for any.
func tailQuantile(n int) float64 {
	best := tailQuantiles[0]
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// quantile is the nearest-rank q-quantile of xs (0 when empty). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// fastQuartile is the 25th percentile of repeated host timings of one unit
// of work (nearest rank; 0 when empty). It sorts xs. On a shared host, load
// from other tenants comes in episodes of seconds that slow every unit they
// cover by 30-50% and can cover most of a run, which moves a run's median
// with them; the fast quartile stays on the host's quiet periods while still
// moving with any change to the work itself.
func fastQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// median is the middle value of xs, the mean of the two middle ones for an
// even count (0 when empty). It sorts xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
