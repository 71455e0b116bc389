package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/clof-go/clof/internal/catalog"
	"github.com/clof-go/clof/internal/kvstore"
	"github.com/clof-go/clof/internal/lockapi"
	"github.com/clof-go/clof/internal/store"
	"github.com/clof-go/clof/internal/topo"
	"github.com/clof-go/clof/internal/xrand"
)

// The serving workload: the native sharded store, preloaded, under a closed
// loop of serveWorkers goroutines.
const (
	serveKeys      = 100_000
	serveShards    = 16
	serveWorkers   = 2
	serveValueSize = 100
	serveScanMax   = 50
	serveTheta     = 0.99
	serveLock      = "seq:clof:tkt-tkt-tkt-tkt"
	servePreloads  = 5
	// serveScatter spreads Zipfian ranks over the keyspace; it is prime and
	// does not divide serveKeys, so rank → key is a bijection.
	serveScatter = 7919
)

const (
	opGet = iota
	opPut
	opScan
	numOps
)

// serveValue is key's stored value: the key itself, then filler from tag.
func serveValue(dst, key []byte, tag uint64) []byte {
	dst = append(dst[:0], key...)
	for len(dst) < serveValueSize {
		tag = tag*6364136223846793005 + 1442695040888963407
		dst = append(dst, byte(tag>>56))
	}
	return dst
}

// openServe builds the store and preloads every key.
func openServe() (*store.KV, time.Duration, error) {
	e, err := catalog.Lookup(serveLock)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	mach := topo.Armv8Server()
	kv := store.OpenKV(store.KVOptions{
		Shards:  serveShards,
		NewLock: func(int) lockapi.Lock { return e.New(mach) },
	})
	if !kv.OptimisticSupported() {
		return nil, 0, fmt.Errorf("%s shard locks offer no optimistic reads", serveLock)
	}
	p := lockapi.NewNativeProc(0)
	s := kv.NewSession()
	var val []byte
	for i := 0; i < serveKeys; i++ {
		k := kvstore.Key(i)
		val = serveValue(val, k, uint64(i))
		s.Put(p, k, val)
	}
	s.Flush(p)
	return kv, time.Since(t0), nil
}

// latHist counts latencies exactly, in ns, up to latHistLinear; longer ones
// are kept one by one.
type latHist struct {
	counts []uint32
	over   []int64
	n      uint64
}

const latHistLinear = 1 << 17

func newLatHist() *latHist { return &latHist{counts: make([]uint32, latHistLinear)} }

func (h *latHist) record(ns int64) {
	h.n++
	if ns >= 0 && ns < latHistLinear {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// quantile is the nearest-rank q-quantile in ns (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Max(1, math.Ceil(q*float64(h.n))))
	var seen uint64
	for ns, c := range h.counts {
		if seen += uint64(c); seen >= rank {
			return float64(ns)
		}
	}
	// The rank lies among the samples beyond the linear range.
	slices.Sort(h.over)
	return float64(h.over[rank-seen-1])
}

// serveWorker is one closed-loop client: it issues its next operation when the
// previous one returns, and checks every read against the key it asked for.
type serveWorker struct {
	lat  [numOps]*latHist
	busy time.Duration // summed operation time
}

func (w *serveWorker) run(b *bench, s *store.KVSession, id int, deadline time.Time) {
	p := lockapi.NewNativeProc(id)
	rng := xrand.New(b.seed*0x9e3779b97f4a7c15 + uint64(id) + 1)
	zipf := xrand.NewZipf(rng.Split(), serveKeys, serveTheta)
	var key, end, val, prev []byte
	for time.Now().Before(deadline) {
		k := int(zipf.Next() * serveScatter % serveKeys)
		key = kvstore.AppendKey(key[:0], k)
		switch r := rng.Intn(100); {
		case r < 75:
			t0 := time.Now()
			v, ok := s.Get(p, key)
			w.done(opGet, time.Since(t0))
			if !b.checks.check(ok && len(v) == serveValueSize && bytes.HasPrefix(v, key)) {
				b.checks.failf("serve get %q: ok=%v value %q", key, ok, v)
			}
		case r < 95:
			val = serveValue(val, key, rng.Uint64())
			t0 := time.Now()
			s.Put(p, key, val)
			w.done(opPut, time.Since(t0))
		default:
			n := 1 + rng.Intn(serveScanMax)
			end = kvstore.AppendKey(end[:0], k+n)
			got, bad := 0, ""
			prev = prev[:0]
			t0 := time.Now()
			s.Scan(p, key, end, func(ck, cv []byte) bool {
				switch {
				case bytes.Compare(ck, key) < 0 || bytes.Compare(ck, end) >= 0:
					bad = fmt.Sprintf("key %q outside [%q, %q)", ck, key, end)
				case got > 0 && bytes.Compare(prev, ck) >= 0:
					bad = fmt.Sprintf("key %q after %q", ck, prev)
				case len(cv) != serveValueSize || !bytes.HasPrefix(cv, ck):
					bad = fmt.Sprintf("key %q holds value %q", ck, cv)
				}
				prev = append(prev[:0], ck...)
				got++
				return bad == ""
			})
			w.done(opScan, time.Since(t0))
			want := min(n, serveKeys-k)
			if !b.checks.check(bad == "" && got == want) {
				b.checks.failf("serve scan [%q, %q): %d keys, want %d; %s", key, end, got, want, bad)
			}
		}
	}
}

func (w *serveWorker) done(op int, d time.Duration) {
	w.lat[op].record(d.Nanoseconds())
	w.busy += d
}

// serveWindow runs the workers for d and merges their latencies by operation.
func serveWindow(b *bench, kv *store.KV, d time.Duration, tr *tracer) ([numOps]*latHist, time.Duration) {
	workers := make([]*serveWorker, serveWorkers)
	sessions := make([]*store.KVSession, serveWorkers)
	for i := range workers {
		workers[i] = &serveWorker{}
		for op := range workers[i].lat {
			workers[i].lat[op] = newLatHist()
		}
		sessions[i] = kv.NewSession()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("store.worker", -1)
			w.run(b, sessions[i], i, t0.Add(d))
			tr.addLeaf(id, w.busy)
			tr.end(id)
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all [numOps]*latHist
	for op := range all {
		all[op] = newLatHist()
		for _, w := range workers {
			all[op].merge(w.lat[op])
		}
	}
	return all, elapsed
}

func runServe(b *bench) error {
	var setups []float64
	for i := 0; i < servePreloads; i++ {
		runtime.GC() // the previous store is garbage; collect it outside the timing
		_, d, err := openServe()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	b.set("setup_s", fastQuartile(setups))

	// The unit is a fresh preloaded store serving one window of closed-loop
	// operations. A store slows as its memtable grows, so each phase gets
	// its own, and the traced phase's store counters are its own.
	var lat [numOps]*latHist
	var elapsed time.Duration
	var kv *store.KV
	var tops uint64
	tr, err := b.phases(func(tr *tracer) (float64, error) {
		var err error
		if kv, _, err = openServe(); err != nil {
			return 0, err
		}
		if tr != nil {
			tr.hostAtStart = readHost() // host.* cover the serving window only
		}
		l, el := serveWindow(b, kv, b.window(), tr)
		var n uint64
		for _, h := range l {
			n += h.n
		}
		if tr == nil {
			lat, elapsed = l, el
		} else {
			tops = n
		}
		return float64(n), nil
	})
	if err != nil {
		return err
	}
	all := newLatHist()
	for _, h := range lat {
		all.merge(h)
	}
	opsPerS := float64(all.n) / elapsed.Seconds()
	b.set("throughput_per_s", opsPerS)
	b.set("latency_ms", all.quantile(0.5)/1e6)
	b.set("ops_per_s", opsPerS)
	b.set("get_p50_us", lat[opGet].quantile(0.5)/1e3)
	b.set("get_p99_us", lat[opGet].quantile(0.99)/1e3)
	b.set("put_p50_us", lat[opPut].quantile(0.5)/1e3)
	b.set("put_p99_us", lat[opPut].quantile(0.99)/1e3)
	b.set("store.scan_p99_us", lat[opScan].quantile(0.99)/1e3)
	tail := tailQuantile(int(all.n))
	b.logf("serve: %d ops (%d get, %d put, %d scan) in %v; p50 %.0f ns, p%g %.0f ns",
		all.n, lat[opGet].n, lat[opPut].n, lat[opScan].n, elapsed.Round(time.Millisecond),
		all.quantile(0.5), tail*100, all.quantile(tail))
	if tr == nil {
		return nil
	}

	b.setAll(tr.hostMetrics(float64(tops)))
	b.set("store.preload_s", fastQuartile(setups))
	var occ store.OCCShardStats
	for _, s := range kv.OCCStats() {
		occ.Optimistic += s.Optimistic
		occ.ValidationFailures += s.ValidationFailures
		occ.Fallbacks += s.Fallbacks
	}
	if occ.Optimistic > 0 {
		validated := occ.Optimistic - occ.ValidationFailures
		b.set("store.occ.success_frac", float64(validated)/float64(occ.Optimistic))
		b.set("store.occ.fallback_frac", float64(occ.Fallbacks)/float64(validated+occ.Fallbacks))
	}
	st := kv.NewSession().StatsSnapshot(lockapi.NewNativeProc(0))
	b.set("kvstore.compactions", float64(st.Compactions))
	b.set("kvstore.runs", float64(st.Runs))
	tr.writeSpans(b.log)
	return nil
}
