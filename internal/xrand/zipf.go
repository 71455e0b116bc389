package xrand

import (
	"math"
	"sync"
)

// This file adds the YCSB-style Zipfian item generator (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases", SIGMOD'94 — the
// algorithm YCSB's ZipfianGenerator uses). The KV workload driver
// (internal/store, internal/figures' kv experiment) draws hot-key-skewed key
// indices from it; determinism follows from the underlying SplitMix64 stream
// and the platform-independent math.Pow software implementation.

// Zipf draws values in [0, n) with a Zipfian distribution: item rank r is
// drawn with probability proportional to 1/(r+1)^theta. theta in (0, 1)
// controls skew (YCSB's default is 0.99: ~10% of items receive ~80% of
// draws); theta = 0 would be uniform but is rejected — use Intn.
type Zipf struct {
	r     *Rand
	n     uint64
	theta float64
	// Precomputed constants of the Gray et al. inversion.
	alpha, zetan, eta, zeta2 float64
}

// NewZipf builds a generator over [0, n) with skew theta, drawing randomness
// from r. The first construction for a given (n, theta) is O(n) (it computes
// the harmonic normalizer); later ones reuse the memoised value, so one
// generator per worker costs one O(n) sum per keyspace, not per worker. It
// panics if n <= 0 or theta is outside (0, 1).
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if !(theta > 0 && theta < 1) { // also rejects NaN
		panic("xrand: NewZipf theta must be in (0, 1)")
	}
	z := &Zipf{r: r, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaKey identifies one Zipf normalizer.
type zetaKey struct {
	n     uint64
	theta float64
}

// zetaMemo caches zeta by (n, theta) for the life of the process. Workloads
// build one generator per virtual thread for every sweep point over the same
// few keyspaces, so the set of keys stays small while the O(n) sums it saves
// dominated sweep CPU. sync.Map keeps it safe under parallel sweep points.
var zetaMemo sync.Map // zetaKey -> float64

// zeta returns the generalized harmonic number sum_{i=1..n} 1/i^theta,
// computed once per (n, theta). The memoised value is the same float64 that
// zetaSum returns, so generators are bit-identical with or without the memo.
func zeta(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaMemo.Load(k); ok {
		return v.(float64)
	}
	v, _ := zetaMemo.LoadOrStore(k, zetaSum(n, theta))
	return v.(float64)
}

// zetaSum computes sum_{i=1..n} 1/i^theta directly.
func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next value. Rank 0 is the hottest item; callers that want
// the hot set scattered across the keyspace should permute the result (e.g.
// multiply by a prime modulo n) rather than use ranks directly.
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n { // guard the open interval against float rounding
		v = z.n - 1
	}
	return v
}

// N returns the generator's item count.
func (z *Zipf) N() uint64 { return z.n }
