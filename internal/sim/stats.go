package sim

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations and reports summary statistics.
// The zero value is an empty sample ready for use. It stores every
// observation and sorts for quantiles, so every statistic is exact.
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 when
// fewer than two observations exist.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using nearest-rank, or 0
// for an empty sample. The service-layer reports read their p50/p95/p99 off
// this accessor: Quantile(0.99) is exactly Percentile(99).
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.values[rank-1]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using nearest-rank,
// or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Merge appends every observation of o to s — how a fleet aggregates
// per-board latency samples into one distribution. Quantiles of the merged
// sample are order-independent (it sorts before ranking), so a merge in
// board-index order is byte-stable whatever schedule produced the parts. A
// nil or empty o is a no-op — a chaos run can hand the merge boards that
// completed zero requests — and merging a sample into itself is rejected
// rather than doubling every observation.
func (s *Sample) Merge(o *Sample) {
	if o == nil || o == s || len(o.values) == 0 {
		return
	}
	s.values = append(s.values, o.values...)
	s.sorted = false
}

// String summarises the sample for logs. Tail latency is first-class in the
// service-layer reports, so the p99 rides along with the moments.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g p99=%.4g",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Max(), s.Percentile(99))
}

// Point is one (x, y) observation of a swept quantity, used by the
// experiment runners to emit figure series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is an ordered list of points with axis labels, rendering to CSV for
// the figure-regeneration harness.
type Series struct {
	Name   string  `json:"name"`
	XLabel string  `json:"xlabel"`
	YLabel string  `json:"ylabel"`
	Points []Point `json:"points"`
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// CSV renders the series as "xlabel,ylabel" header plus one row per point.
func (s *Series) CSV() string {
	out := fmt.Sprintf("%s,%s\n", s.XLabel, s.YLabel)
	for _, p := range s.Points {
		out += fmt.Sprintf("%g,%g\n", p.X, p.Y)
	}
	return out
}
