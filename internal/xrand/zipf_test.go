package xrand

import (
	"math"
	"sync"
	"testing"
)

// TestZipfRange: every draw lands in [0, n).
func TestZipfRange(t *testing.T) {
	z := NewZipf(New(1), 100, 0.99)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v >= 100 {
			t.Fatalf("draw %d out of range: %d", i, v)
		}
	}
}

// TestZipfSkew: with YCSB's theta=0.99 the head of the distribution must
// dominate — rank 0 drawn far more than a uniform share, and the top 10% of
// ranks absorbing well over half the draws.
func TestZipfSkew(t *testing.T) {
	const n, draws = 1000, 200000
	z := NewZipf(New(7), n, 0.99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if uniform := draws / n; counts[0] < 20*uniform {
		t.Errorf("rank 0 drawn %d times, want >> uniform share %d", counts[0], uniform)
	}
	top := 0
	for _, c := range counts[:n/10] {
		top += c
	}
	if float64(top)/draws < 0.6 {
		t.Errorf("top 10%% of ranks got %.1f%% of draws, want > 60%%", 100*float64(top)/draws)
	}
	// Monotone head: rank 0 >= rank 1 >= rank 2 (with this many draws the
	// ordering of the head is stable).
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Errorf("head not monotone: %d, %d, %d", counts[0], counts[1], counts[2])
	}
}

// TestZipfDeterminism: identical seeds give identical streams.
func TestZipfDeterminism(t *testing.T) {
	a := NewZipf(New(42), 500, 0.9)
	b := NewZipf(New(42), 500, 0.9)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("streams diverge at %d: %d vs %d", i, x, y)
		}
	}
}

// TestZipfPanics: the constructor rejects degenerate parameters.
func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     uint64
		theta float64
	}{
		{"zero-n", 0, 0.99},
		{"theta-0", 10, 0},
		{"theta-1", 10, 1},
		{"theta-nan", 10, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewZipf did not panic", tc.name)
				}
			}()
			NewZipf(New(1), tc.n, tc.theta)
		}()
	}
}

// TestZetaMemoBitIdentical: the memoised normalizer is the same float64 as
// the direct sum, on first computation and on every cache hit, so memoising
// cannot move any Zipf draw.
func TestZetaMemoBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{1, 0.5}, {2, 0.99}, {500, 0.9}, {4096, 0.99}, {100000, 0.7}} {
		want := math.Float64bits(zetaSum(tc.n, tc.theta))
		for i := 0; i < 2; i++ {
			if got := math.Float64bits(zeta(tc.n, tc.theta)); got != want {
				t.Errorf("zeta(%d, %v) call %d = %#x, direct sum %#x", tc.n, tc.theta, i, got, want)
			}
		}
	}
}

// TestZipfConcurrentConstruction: parallel sweep points build generators
// over the same and different keyspaces at once. Run under -race, this
// pins the memo as data-race-free; every worker must also draw the same
// streams.
func TestZipfConcurrentConstruction(t *testing.T) {
	const workers = 8
	ns := []uint64{3000, 3001, 3002}
	streams := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range ns {
				z := NewZipf(New(5), n, 0.8)
				for j := 0; j < 100; j++ {
					streams[w] = append(streams[w], z.Next())
				}
			}
		}()
	}
	wg.Wait()
	for w, s := range streams[1:] {
		for j := range s {
			if s[j] != streams[0][j] {
				t.Fatalf("worker %d draw %d = %d, worker 0 drew %d", w+1, j, s[j], streams[0][j])
			}
		}
	}
}
