package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clof-go/clof/internal/clof"
	"github.com/clof-go/clof/internal/exp"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/locks"
	"github.com/clof-go/clof/internal/mcheck"
	"github.com/clof-go/clof/internal/topo"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10_000, 0.999}, {100_000, 0.9999}, {5_000_000, 0.9999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.01: 1, 0.5: 50, 0.99: 99, 1: 100} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
	// The fast quartile of a few sweeps or passes: the second fastest of
	// five, the fastest of three.
	if got := fastQuartile([]float64{9, 3, 7, 1, 5}); got != 3 {
		t.Errorf("fastQuartile of 5 = %v, want 3", got)
	}
	if got := fastQuartile([]float64{9, 3, 7}); got != 3 {
		t.Errorf("fastQuartile of 3 = %v, want 3", got)
	}
}

// The exact latency histogram must agree with sorting the samples, including
// samples too long for its linear range.
func TestLatHistMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := newLatHist(), newLatHist()
	var xs []float64
	for i := 0; i < 5000; i++ {
		ns := rng.Int63n(3000)
		if i%50 == 0 {
			ns = latHistLinear + rng.Int63n(1e6)
		}
		xs = append(xs, float64(ns))
		if i%2 == 0 {
			a.record(ns)
		} else {
			b.record(ns)
		}
	}
	a.merge(b)
	for _, q := range []float64{0.001, 0.5, 0.9, 0.98, 0.99, 0.999, 1} {
		if got, want := a.quantile(q), quantile(xs, q); got != want {
			t.Errorf("q%v: histogram %v, sorted %v", q, got, want)
		}
	}
	// Every rank among and just below the long samples, where a rank that
	// went through floating point again would land on its neighbour.
	for k := len(xs) - 150; k <= len(xs); k++ {
		q := float64(k) / float64(len(xs))
		if got, want := a.quantile(q), quantile(xs, q); got != want {
			t.Errorf("rank %d: histogram %v, sorted %v", k, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "sweep", parent: -1, start: 0, end: ms(100), leaf: ms(5)},
		// Two parallel children overlapping on [20, 30]: they cover 40, not 50.
		{name: "point", parent: 0, start: ms(10), end: ms(30)},
		{name: "point", parent: 0, start: ms(20), end: ms(50)},
		// A child outliving its parent counts only inside the parent.
		{name: "point", parent: 0, start: ms(90), end: ms(120)},
		{name: "leaf", parent: 1, start: ms(12), end: ms(14)},
		// An unclosed span is ignored.
		{name: "open", parent: 0, start: ms(60), end: -1},
	}
	got := summarize(spans)
	want := map[string]spanTotals{
		"sweep": {Count: 1, TotalS: 0.100, SelfS: 0.100 - 0.040 - 0.010 - 0.005},
		"point": {Count: 3, TotalS: 0.080, SelfS: 0.018 + 0.030 + 0.030},
		"leaf":  {Count: 1, TotalS: 0.002, SelfS: 0.002},
	}
	if len(got) != len(want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestFailFracCounting(t *testing.T) {
	b := &bench{metrics: map[string]float64{}, exact: map[string]any{}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if !b.checks.check(i%250 != 0) {
					b.checks.failf("check %d", i)
				}
			}
		}()
	}
	wg.Wait()
	if a, f := b.checks.attempted.Load(), b.checks.failed.Load(); a != 4000 || f != 16 {
		t.Fatalf("attempted %d failed %d, want 4000 and 16", a, f)
	}
	if got := b.checks.failFrac(); got != 16.0/4000 {
		t.Fatalf("failFrac = %v", got)
	}
	if n := len(b.checks.failures()); n != 10 {
		t.Fatalf("kept %d failure messages, want the first 10", n)
	}
	b.traced = true
	res, err := b.result(testManifest(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4000 || res.Failed != 16 {
		t.Fatalf("result %+v", res)
	}
	if got := res.Metrics["fail_frac"].Value; got != 16.0/4000 {
		t.Fatalf("fail_frac %v", got)
	}
}

func testManifest(t *testing.T) manifest {
	t.Helper()
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the program name the same workloads.
func TestManifestWorkloads(t *testing.T) {
	m := testManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// Two runs from one seed must simulate exactly the same thing.
func TestSameSeedIdenticalCounts(t *testing.T) {
	t.Run("memsim", func(t *testing.T) {
		mach := topo.DeepServer256()
		tkt := locks.MustType("tkt")
		dl := deepLock{"clof", func() lockapi.Lock { return clof.Must(topo.DeepHierarchy(mach), clof.Composition{tkt, tkt, tkt, tkt}) }}
		b := &bench{seed: 7}
		var runs []deepRun
		for i := 0; i < 2; i++ {
			r, err := deepOnce(b, mach, dl, spawnOrder(mach.NumCPUs(), b.seed), nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		if runs[0].events != runs[1].events || runs[0].ops != runs[1].ops || runs[0].iters != runs[1].iters {
			t.Fatalf("same seed, different runs: %+v vs %+v", runs[0], runs[1])
		}
		if b.checks.failed.Load() != 0 {
			t.Fatalf("oracle failed: %v", b.checks.failures())
		}
	})
	t.Run("sweep-point", func(t *testing.T) {
		h := topo.ArmHierarchy4()
		spec, pts := composeGrid(h, 3)
		var recs [2]pointRecord
		for i := range recs {
			measurePoint(h, pts[3], exp.PointSeed(spec, pts[3].key()), &recs[i], nil, -1)
		}
		if recs[0].total != recs[1].total || recs[0].events != recs[1].events || recs[0].total == 0 {
			t.Fatalf("same seed, different points: %+v vs %+v", recs[0], recs[1])
		}
	})
	t.Run("mcheck", func(t *testing.T) {
		var cs []mcheck.Result
		for i := 0; i < 2; i++ {
			cs = append(cs, mcheck.Check(mcheck.LockProgram("clh", 2, 2, locks.MustType("clh").New), mcheck.Config{Mode: mcheck.SC}))
		}
		if cs[0].States != cs[1].States || cs[0].Executions != cs[1].Executions {
			t.Fatalf("same program, different searches: %+v vs %+v", cs[0], cs[1])
		}
	})
}

// A short serve run prints exactly the end-to-end metrics, all measured.
func TestServeRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving workload")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "serve", "--seed", "3", "--seconds", "1", "--manifest", "../BENCHMARK.json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	m := testManifest(t)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(m.EndToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, s := range m.EndToEnd {
		if v, ok := res.Metrics[s.Name]; !ok || v.Unit != s.Unit || !(v.Value > 0) {
			t.Errorf("%s: %+v", s.Name, v)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--manifest", "../BENCHMARK.json"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
