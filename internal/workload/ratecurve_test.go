package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func diurnalTestCurve() *RateCurve {
	return &RateCurve{
		Points: []RatePoint{
			{At: 0, RatePerSec: 100},
			{At: 100 * sim.Millisecond, RatePerSec: 500},
			{At: 200 * sim.Millisecond, RatePerSec: 100},
		},
		Flashes: []Flash{{
			Start:      120 * sim.Millisecond,
			Ramp:       10 * sim.Millisecond,
			Hold:       20 * sim.Millisecond,
			Decay:      10 * sim.Millisecond,
			PeakPerSec: 900,
		}},
	}
}

func TestRateCurveInterpolationAndClamping(t *testing.T) {
	c := &RateCurve{Points: []RatePoint{
		{At: 10 * sim.Millisecond, RatePerSec: 100},
		{At: 30 * sim.Millisecond, RatePerSec: 300},
	}}
	cases := []struct {
		at   sim.Duration
		want float64
	}{
		{0, 100},                     // clamp before the first anchor
		{10 * sim.Millisecond, 100},  // on the anchor
		{20 * sim.Millisecond, 200},  // midpoint interpolates
		{30 * sim.Millisecond, 300},  // on the last anchor
		{100 * sim.Millisecond, 300}, // clamp after the last anchor
	}
	for _, tc := range cases {
		if got := c.Rate(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Rate(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestFlashRampHoldDecayShape(t *testing.T) {
	c := diurnalTestCurve()
	f := c.Flashes[0]
	// Mid-ramp: half the spike on top of the interpolated base.
	base := c.base(125 * sim.Millisecond)
	if got := c.Rate(125 * sim.Millisecond); math.Abs(got-(base+450)) > 1e-6 {
		t.Errorf("mid-ramp rate = %v, want base %v + 450", got, base)
	}
	// Hold: the full spike.
	base = c.base(140 * sim.Millisecond)
	if got := c.Rate(140 * sim.Millisecond); math.Abs(got-(base+900)) > 1e-6 {
		t.Errorf("hold rate = %v, want base %v + 900", got, base)
	}
	// Mid-decay: half again.
	base = c.base(155 * sim.Millisecond)
	if got := c.Rate(155 * sim.Millisecond); math.Abs(got-(base+450)) > 1e-6 {
		t.Errorf("mid-decay rate = %v, want base %v + 450", got, base)
	}
	// Outside: no contribution.
	if got := f.rate(f.end()); got != 0 {
		t.Errorf("spike contributes %v past its end", got)
	}
	// Instant edges: zero ramp/decay must not divide by zero.
	inst := Flash{Start: sim.Millisecond, Hold: sim.Millisecond, PeakPerSec: 50}
	if got := inst.rate(sim.Millisecond); got != 50 {
		t.Errorf("instant ramp at start = %v, want 50", got)
	}
}

func TestRateCurvePeakAndHorizon(t *testing.T) {
	c := diurnalTestCurve()
	// The base is falling through the hold, so the maximum sits on the
	// ramp-end corner at 130 ms: the interpolated base there plus the spike.
	want := c.base(130*sim.Millisecond) + 900
	if got := c.Peak(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Peak = %v, want %v", got, want)
	}
	if got := c.Horizon(); got != 200*sim.Millisecond {
		t.Errorf("Horizon = %v, want 200ms", got)
	}
	// A flash outlasting the anchors extends the horizon.
	c.Flashes[0].Hold = 200 * sim.Millisecond
	if got, want := c.Horizon(), c.Flashes[0].end(); got != want {
		t.Errorf("Horizon = %v, want flash end %v", got, want)
	}
}

func TestRateCurveValidate(t *testing.T) {
	if err := diurnalTestCurve().Validate(); err != nil {
		t.Errorf("well-formed curve rejected: %v", err)
	}
	bad := []struct {
		name string
		c    RateCurve
		want string
	}{
		{"empty", RateCurve{}, "at least one anchor"},
		{"negative rate", RateCurve{Points: []RatePoint{{At: 0, RatePerSec: -1}}}, "negative"},
		{"unordered", RateCurve{Points: []RatePoint{{At: sim.Second}, {At: 0, RatePerSec: 1}}}, "time-ordered"},
		{"negative flash", RateCurve{
			Points:  []RatePoint{{At: 0, RatePerSec: 1}},
			Flashes: []Flash{{Ramp: -sim.Millisecond}},
		}, "negative"},
		{"all zero", RateCurve{Points: []RatePoint{{At: 0, RatePerSec: 0}}}, "peak"},
	}
	for _, tc := range bad {
		err := tc.c.Validate()
		if err == nil {
			t.Errorf("%s: invalid curve accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q should mention %q", tc.name, err, tc.want)
		}
	}
}

// TestGenerateUntilTracksCurve pins the thinning construction: the
// per-interval arrival counts of a generated day follow the curve's shape
// (ramp up, spike, ramp down), and the whole stream stays inside the
// horizon and deterministic.
func TestGenerateUntilTracksCurve(t *testing.T) {
	c := diurnalTestCurve()
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	spec := ArrivalSpec{Curve: c}
	horizon := c.Horizon()
	tr, err := spec.GenerateUntil(21, horizon, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(rps, asps); err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 || tr[len(tr)-1].At >= horizon {
		t.Fatalf("stream of %d requests should fill but not exceed the %v horizon", len(tr), horizon)
	}
	// Count arrivals per 20 ms bucket and compare shape against the curve:
	// the spike bucket (flash hold, ~140 ms) must dominate the night bucket
	// (~0–20 ms) by roughly the rate ratio.
	buckets := make([]int, int(horizon/(20*sim.Millisecond)))
	for _, req := range tr {
		buckets[int(req.At/(20*sim.Millisecond))]++
	}
	night, spike := buckets[0], buckets[7] // [140,160) ms holds the flash
	if spike < 4*night {
		t.Errorf("flash bucket %d should dwarf night bucket %d (buckets %v)", spike, night, buckets)
	}
	// Determinism.
	tr2, err := spec.GenerateUntil(21, horizon, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != len(tr2) {
		t.Fatalf("repeat run length %d vs %d", len(tr2), len(tr))
	}
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

// TestGenerateNilCurveByteIdentical is the composition guarantee: a spec
// without a curve must replay the exact historical stream — thinning only
// costs draws when a curve is present.
func TestGenerateNilCurveByteIdentical(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	spec := ArrivalSpec{RatePerSec: 500, Skew: 1.1, Tenants: []string{"a", "b"}}
	tr, err := spec.Generate(11, 2000, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	// A flat curve at the same rate generates the same *mean* but is allowed
	// to differ (it draws thinning uniforms); the nil-curve stream is the
	// contract. Compare against a second nil-curve run and the pre-curve
	// reference generator (the fixed-gap Poisson loop for the plain case).
	plainSpec := ArrivalSpec{RatePerSec: 500}
	plain, err := plainSpec.Generate(11, 2000, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	ref := historicalPoisson(11, 2000, sim.FromSeconds(1.0/500), rps, asps)
	for i := range plain {
		if plain[i] != ref[i] {
			t.Fatalf("request %d diverges from the historical stream: %+v vs %+v", i, plain[i], ref[i])
		}
	}
	tr2, err := spec.Generate(11, 2000, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

// TestGenerateUntilFlatCurveMatchesRate checks thinning against a flat
// curve: the accepted rate converges to the curve level (acceptance
// probability 1 — no candidate wasted), so the thinning construction does
// not bias the mean.
func TestGenerateUntilFlatCurveMatchesRate(t *testing.T) {
	c := &RateCurve{Points: []RatePoint{{At: 0, RatePerSec: 400}, {At: 10 * sim.Second, RatePerSec: 400}}}
	spec := ArrivalSpec{Curve: c}
	tr, err := spec.GenerateUntil(13, 10*sim.Second, []string{"RP1"}, []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(len(tr)) / 10
	if measured < 0.95*400 || measured > 1.05*400 {
		t.Errorf("flat-curve rate %.1f req/s, want 400 ±5%%", measured)
	}
}

func TestArrivalSpecSLOClasses(t *testing.T) {
	spec := ArrivalSpec{
		RatePerSec: 500,
		Deadline:   50 * sim.Millisecond,
		Classes: []SLOClass{
			{Name: "latency", Deadline: 10 * sim.Millisecond, Weight: 3},
			{Name: "batch", Weight: 1}, // no deadline: falls back to the spec's
		},
	}
	tr, err := spec.Generate(17, 4000, []string{"RP1"}, []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, req := range tr {
		counts[req.Class]++
		switch req.Class {
		case "latency":
			if req.Deadline != 10*sim.Millisecond {
				t.Fatalf("latency request carries deadline %v", req.Deadline)
			}
		case "batch":
			if req.Deadline != 50*sim.Millisecond {
				t.Fatalf("batch request should fall back to the spec deadline, got %v", req.Deadline)
			}
		default:
			t.Fatalf("unclassed request in a classed stream: %+v", req)
		}
	}
	// 3:1 weights → roughly three quarters latency.
	frac := float64(counts["latency"]) / float64(len(tr))
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("latency share %.2f, want ≈0.75", frac)
	}
	// No classes ⇒ the historical classless stream, byte for byte.
	classless := ArrivalSpec{RatePerSec: 500, Deadline: 50 * sim.Millisecond}
	tr2, err := classless.Generate(17, 4000, []string{"RP1"}, []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ArrivalSpec{RatePerSec: 500, Deadline: 50 * sim.Millisecond}.Generate(17, 4000, []string{"RP1"}, []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr2 {
		if tr2[i] != ref[i] {
			t.Fatalf("classless request %d not stable", i)
		}
		if tr2[i].Class != "" {
			t.Fatalf("classless request %d carries class %q", i, tr2[i].Class)
		}
	}
}

// TestSkewPickerBinarySearchMatchesLinearScan pins the binary-search
// picker against the linear reference it replaced: identical RNG streams
// must yield identical index sequences for every (n, skew) shape —
// including skews that pile nearly all mass on the head, where an
// off-by-one at the cumulative boundary would show immediately.
func TestSkewPickerBinarySearchMatchesLinearScan(t *testing.T) {
	linearRef := func(rng *sim.RNG, n int, skew float64) func() int {
		cum := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), skew)
			cum[i] = total
		}
		return func() int {
			u := rng.Float64() * total
			for i, c := range cum {
				if u < c {
					return i
				}
			}
			return n - 1
		}
	}
	for _, n := range []int{1, 2, 3, 7, 16, 100} {
		for _, skew := range []float64{0.3, 1.0, 1.1, 2.5, 8} {
			a := skewPicker(sim.NewRNG(99), n, skew)
			b := linearRef(sim.NewRNG(99), n, skew)
			for i := 0; i < 5000; i++ {
				if got, want := a(), b(); got != want {
					t.Fatalf("n=%d skew=%v draw %d: binary %d vs linear %d", n, skew, i, got, want)
				}
			}
		}
	}
}
