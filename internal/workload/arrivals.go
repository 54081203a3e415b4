package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// This file holds the open-loop side of the workload package: arrival
// generators parameterised by an offered rate rather than a fixed request
// gap. A trace replayer (hll.Framework) is closed-loop — the next request
// waits for the previous one — but a reconfiguration *service* faces an
// open stream whose arrivals do not care whether the ICAP is busy. These
// generators feed the saturation and scheduling scenarios (E11/E12) and,
// through RateCurve thinning, the diurnal scenario (E16).

// SLOClass is one service-level class of traffic: requests drawn into the
// class carry its deadline, and the service reports deadline misses per
// class — the latency-sensitive vs batch split a capacity plan must honour.
type SLOClass struct {
	// Name labels the class in per-class statistics.
	Name string
	// Deadline is the class's latency budget (0 falls back to the spec's
	// Deadline).
	Deadline sim.Duration
	// Weight is the class's relative traffic share (≤ 0 means 1).
	Weight float64
}

// ArrivalSpec describes an open-loop arrival process.
type ArrivalSpec struct {
	// RatePerSec is the mean offered load in requests per second. Ignored
	// when Curve is set (the curve owns the rate).
	RatePerSec float64
	// BurstFactor > 1 makes the stream bursty: requests inside a burst
	// arrive at RatePerSec·BurstFactor, with idle gaps between bursts sized
	// so the long-run mean stays RatePerSec. ≤ 1 means pure Poisson.
	BurstFactor float64
	// BurstLen is the number of requests per burst (ignored for Poisson).
	BurstLen int
	// Tenants attributes each request to a uniformly drawn tenant; empty
	// means anonymous requests.
	Tenants []string
	// Deadline is the per-request latency budget (0 = none).
	Deadline sim.Duration
	// Skew > 0 makes popularity Zipf-like instead of uniform: the i-th
	// entry of each list (RPs, ASPs, Tenants) is drawn with weight
	// 1/(i+1)^Skew, so early entries are hot and late ones cold — the
	// skewed image/tenant popularity a routing study needs. 0 keeps the
	// uniform draws (and the exact historical streams).
	Skew float64
	// Curve, when non-nil, makes the offered rate time-varying: candidates
	// are generated at the curve's peak rate (through the same burst
	// machinery) and thinned — each kept with probability rate(t)/peak, one
	// extra RNG draw per candidate. Nil keeps the stationary generators and
	// their historical streams bit for bit.
	Curve *RateCurve
	// Classes splits traffic into SLO classes: each request draws a class
	// by weight (one extra RNG draw per request) and carries the class's
	// deadline. Empty keeps the classless historical streams bit for bit.
	Classes []SLOClass
}

// cumPick draws an index from cumulative weights with exactly one RNG
// draw: the first index whose cumulative weight strictly exceeds
// u ∈ [0, total). The binary search uses the `> u` predicate rather than
// sort.SearchFloat64s (whose `>= u` comparison would land one index early
// on an exact tie), so it returns precisely the index the historical
// linear scan returned on every input.
func cumPick(rng *sim.RNG, cum []float64) int {
	u := rng.Float64() * cum[len(cum)-1]
	if i := sort.Search(len(cum), func(i int) bool { return cum[i] > u }); i < len(cum) {
		return i
	}
	return len(cum) - 1
}

// skewPicker returns a deterministic index picker over n entries: uniform
// when skew ≤ 0, Zipf-like (weight 1/(i+1)^skew) otherwise. Either way it
// consumes exactly one RNG draw per pick, so traces with and without skew
// stay seed-aligned.
func skewPicker(rng *sim.RNG, n int, skew float64) func() int {
	if skew <= 0 {
		return func() int { return rng.Intn(n) }
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	return func() int { return cumPick(rng, cum) }
}

// classPicker returns a weighted picker over the spec's SLO classes (nil
// when there are none), consuming one RNG draw per pick.
func classPicker(rng *sim.RNG, classes []SLOClass) func() int {
	if len(classes) == 0 {
		return nil
	}
	cum := make([]float64, len(classes))
	total := 0.0
	for i, c := range classes {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		cum[i] = total
	}
	return func() int { return cumPick(rng, cum) }
}

// Generate produces n requests over the given RPs and ASPs. The trace is a
// pure function of (spec, seed, n, rps, asps): identical inputs yield
// byte-identical traces, which is what lets a sharded campaign replay them.
func (sp ArrivalSpec) Generate(seed uint64, n int, rps, asps []string) (Trace, error) {
	return sp.generate(seed, rps, asps, func(accepted int, _ sim.Duration) bool {
		return accepted >= n
	}, n)
}

// GenerateUntil produces every request arriving before the horizon — the
// replay form a RateCurve day wants (the stream length is then decided by
// the curve's integral, not a request count). Like Generate it is a pure
// function of its inputs.
func (sp ArrivalSpec) GenerateUntil(seed uint64, horizon sim.Duration, rps, asps []string) (Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: non-positive generation horizon %v", horizon)
	}
	return sp.generate(seed, rps, asps, func(_ int, at sim.Duration) bool {
		return at >= horizon
	}, 0)
}

// generate is the shared arrival loop. done is consulted with the accepted
// count before each candidate and with the candidate's arrival instant
// after its gap draw; sizeHint pre-sizes the trace. The RNG draw order per
// candidate is fixed — gap, [thinning], RP, ASP, [tenant], [class] — and
// the optional draws only happen when their feature is configured, so a
// spec without curve or classes replays the historical streams exactly.
func (sp ArrivalSpec) generate(seed uint64, rps, asps []string, done func(accepted int, at sim.Duration) bool, sizeHint int) (Trace, error) {
	rate := sp.RatePerSec
	if sp.Curve != nil {
		if err := sp.Curve.Validate(); err != nil {
			return nil, err
		}
		rate = sp.Curve.Peak()
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: non-positive arrival rate %v", rate)
	}
	if len(rps) == 0 || len(asps) == 0 {
		return nil, fmt.Errorf("workload: arrival generator needs RPs and ASPs")
	}
	rng := sim.NewRNG(seed)
	meanGap := sim.FromSeconds(1 / rate)
	bursty := sp.BurstFactor > 1 && sp.BurstLen > 1
	var intraGap, interGap sim.Duration
	if bursty {
		// A burst cycle (one inter-burst pause + BurstLen−1 intra-burst
		// gaps) must span BurstLen·meanGap on average, so the long-run mean
		// rate stays RatePerSec (the curve's peak in thinning mode).
		intraGap = sim.Duration(float64(meanGap) / sp.BurstFactor)
		interGap = sim.Duration(float64(sp.BurstLen)*float64(meanGap) - float64(sp.BurstLen-1)*float64(intraGap))
	}
	pickRP := skewPicker(rng, len(rps), sp.Skew)
	pickASP := skewPicker(rng, len(asps), sp.Skew)
	pickTenant := skewPicker(rng, len(sp.Tenants), sp.Skew)
	pickClass := classPicker(rng, sp.Classes)
	tr := make(Trace, 0, sizeHint)
	at := sim.Duration(0)
	for i := 0; !done(len(tr), at); i++ {
		switch {
		case !bursty:
			at += sim.Duration(float64(meanGap) * rng.ExpFloat64())
		case i%sp.BurstLen == 0:
			at += sim.Duration(float64(interGap) * rng.ExpFloat64())
		default:
			at += sim.Duration(float64(intraGap) * rng.ExpFloat64())
		}
		if done(len(tr), at) {
			break
		}
		if sp.Curve != nil && rng.Float64()*rate >= sp.Curve.Rate(at) {
			continue // thinned: the candidate falls outside the curve
		}
		req := Request{
			At:       at,
			RP:       rps[pickRP()],
			ASP:      asps[pickASP()],
			Deadline: sp.Deadline,
		}
		if len(sp.Tenants) > 0 {
			req.Tenant = sp.Tenants[pickTenant()]
		}
		if pickClass != nil {
			c := sp.Classes[pickClass()]
			req.Class = c.Name
			if c.Deadline > 0 {
				req.Deadline = c.Deadline
			}
		}
		tr = append(tr, req)
	}
	return tr, nil
}
