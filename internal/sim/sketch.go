package sim

import "math"

// sketch is the memory-bounded quantile backend a Sample switches to for
// long-horizon runs (see Sample.UseSketch): a log-linear histogram in the
// HDR style. Positive values land in base-2 exponent buckets split into
// sketchSubBuckets linear sub-buckets each, so a bucket spans a relative
// width of 2^-sketchSubBits and reporting its midpoint bounds the relative
// quantile error at 2^-(sketchSubBits+1) ≈ 0.78 %. Counts are integers and
// bucket indexing is pure float arithmetic on the value alone, so a sketch
// is a deterministic function of the multiset of observations — merging
// per-board sketches in board-index order is byte-stable like the exact
// merge, and (unlike it) even order-independent.
//
// Memory is O(sketchBuckets) however many values arrive: the whole counts
// array is sketchBuckets × 8 bytes = 32 KiB, allocated lazily on the first
// observation. Moments (count, sum, sum of squares) and the exact min/max
// ride alongside, so Mean, StdDev, Min and Max stay available; only the
// interior quantiles are approximate.
type sketch struct {
	counts []int64 // lazily allocated, len sketchBuckets
	zeros  int64   // observations ≤ 0 (rank below every positive bucket)
	n      int64
	sum    float64
	sumsq  float64
	min    float64
	max    float64
}

const (
	// sketchSubBits fixes the relative resolution: 2^6 = 64 linear
	// sub-buckets per power of two, a 1/64 bucket width.
	sketchSubBits  = 6
	sketchSubCount = 1 << sketchSubBits
	// sketchMinExp..sketchMaxExp is the covered binary-exponent range:
	// 2^-16 ≈ 1.5e-5 up to 2^47 ≈ 1.4e14. The service-layer samples are
	// microsecond latencies, so the range is generous on both sides;
	// values outside clamp into the end buckets (min/max stay exact).
	sketchMinExp   = -16
	sketchMaxExp   = 47
	sketchExpCount = sketchMaxExp - sketchMinExp + 1
	sketchBuckets  = sketchExpCount * sketchSubCount
)

// sketchIndex maps a positive value to its bucket.
func sketchIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	exp--                      // normalise to v = f × 2^exp with f ∈ [1, 2)
	if exp < sketchMinExp {
		return 0
	}
	if exp > sketchMaxExp {
		return sketchBuckets - 1
	}
	sub := int((frac*2 - 1) * sketchSubCount) // (f-1) × subcount, f ∈ [1, 2)
	if sub >= sketchSubCount {
		sub = sketchSubCount - 1
	}
	return (exp-sketchMinExp)*sketchSubCount + sub
}

// sketchValue is the representative (midpoint) of a bucket — the value a
// quantile landing in the bucket reports.
func sketchValue(idx int) float64 {
	exp := idx/sketchSubCount + sketchMinExp
	sub := idx % sketchSubCount
	lo := math.Ldexp(1+float64(sub)/sketchSubCount, exp)
	hi := math.Ldexp(1+float64(sub+1)/sketchSubCount, exp)
	return (lo + hi) / 2
}

// add records one observation.
func (sk *sketch) add(v float64) {
	if sk.n == 0 || v < sk.min {
		sk.min = v
	}
	if sk.n == 0 || v > sk.max {
		sk.max = v
	}
	sk.n++
	sk.sum += v
	sk.sumsq += v * v
	if v <= 0 {
		sk.zeros++
		return
	}
	if sk.counts == nil {
		sk.counts = make([]int64, sketchBuckets)
	}
	sk.counts[sketchIndex(v)]++
}

// merge folds another sketch in. Count addition is order-independent; the
// float moments are summed in call order, which the fleet layer keeps at
// board-index order for byte-stable output.
func (sk *sketch) merge(o *sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if sk.n == 0 || o.min < sk.min {
		sk.min = o.min
	}
	if sk.n == 0 || o.max > sk.max {
		sk.max = o.max
	}
	sk.n += o.n
	sk.sum += o.sum
	sk.sumsq += o.sumsq
	sk.zeros += o.zeros
	if o.counts != nil {
		if sk.counts == nil {
			sk.counts = make([]int64, sketchBuckets)
		}
		for i, c := range o.counts {
			sk.counts[i] += c
		}
	}
}

// quantile returns the nearest-rank q-th quantile estimate. The extremes
// are exact (min and max are tracked outside the buckets); interior ranks
// report their bucket midpoint.
func (sk *sketch) quantile(q float64) float64 {
	if sk.n == 0 {
		return 0
	}
	if q <= 0 {
		return sk.min
	}
	if q >= 1 {
		return sk.max
	}
	rank := int64(math.Ceil(q * float64(sk.n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= sk.zeros {
		return sk.min
	}
	seen := sk.zeros
	for i, c := range sk.counts {
		seen += c
		if seen >= rank {
			return sketchValue(i)
		}
	}
	return sk.max
}

// mean and stddev report the moment-tracked statistics (the n-1 denominator
// matches the exact backend).
func (sk *sketch) mean() float64 {
	if sk.n == 0 {
		return 0
	}
	return sk.sum / float64(sk.n)
}

func (sk *sketch) stddev() float64 {
	if sk.n < 2 {
		return 0
	}
	m := sk.mean()
	ss := sk.sumsq - float64(sk.n)*m*m
	if ss < 0 {
		ss = 0 // float cancellation guard
	}
	return math.Sqrt(ss / float64(sk.n-1))
}
