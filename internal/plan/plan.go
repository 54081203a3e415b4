// Package plan is the power-aware capacity planner: given an arrival
// workload and an SLO (p99 sojourn bound + max shed fraction), it searches
// fleet composition × operating frequency × routing policy × cache budget
// for the configuration that meets the SLO at minimum total watts.
//
// A naive search is simulation-bound — the default candidate space is
// thousands of configurations and one full fleet simulation costs seconds —
// so the planner runs a two-tier engine:
//
//   - Tier A is a closed-form M/G/k-style queueing surrogate calibrated
//     entirely from artefacts the repo already owns: the platform profile's
//     memory-plateau throughput and analytic fixed overhead for the
//     reconfiguration time, power.Model.PDRAt plus the board's thermal
//     circuit for steady-state watts, and a cache-hit model whose single
//     congestion-tail constant is fitted to the E11 saturation knees. It
//     scores a candidate in microseconds and prunes the space to a Pareto
//     frontier over (watts, predicted p99, predicted shed).
//   - Tier B re-evaluates only frontier candidates with full cluster.Fleet
//     simulations, fanned out over internal/workpool behind a memoization
//     cache (see memo.go), merged in index order so a parallel search is
//     byte-identical to a sequential one.
//
// The whole search is a pure function of (workload, SLO, space): worker
// counts change wall clock only.
package plan

import (
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kappa is the surrogate's single congestion-tail constant: the p99 sojourn
// inflates as p99₀·(1 + κ·u/(1−u)) with utilisation u. Fitted so the
// surrogate's saturation knee matches E11's simulated cached knee on the
// zedboard (400 req/s at seed 42) and cross-validated against the zybo-z7-10
// and zc706 knees; any κ in roughly (5.4, 18) reproduces all three, so the
// calibration is not knife-edged.
const kappa = 9.0

// utilCap bounds the congestion term: past û = 0.9 the M/G/1-style factor
// is frozen and the finite-stream backlog term (active only above u = 1)
// takes over, keeping the predicted curve finite and monotone through the
// saturation boundary.
const utilCap = 0.9

// thermalIters is the fixed-point iteration count for the steady-state die
// temperature (the static-leakage exponent is mild, so this converges to
// well below the meter resolution).
const thermalIters = 32

// Workload describes the arrival stream a plan must carry.
type Workload struct {
	// Seed drives the arrival stream generation (tier B replays exactly
	// this stream; tier A only uses the rate and mix).
	Seed uint64
	// RatePerSec is the offered Poisson arrival rate.
	RatePerSec float64
	// Requests is the finite stream length per verifying simulation.
	Requests int
	// ASPs is the accelerator mix requests draw from (uniformly).
	ASPs []string
	// Deadline is the per-request deadline the stream carries.
	Deadline sim.Duration
}

// SLO is the objective a candidate must meet.
type SLO struct {
	// P99 bounds the fleet-wide p99 sojourn time.
	P99 sim.Duration
	// MaxShed bounds the fraction of arrivals lost at the door or shed by
	// admission control.
	MaxShed float64
}

// Candidate is one point of the search space.
type Candidate struct {
	// Boards is the fleet composition in index order.
	Boards []cluster.BoardSpec
	// FreqMHz is the ICAP operating frequency applied to every board.
	FreqMHz float64
	// Router names the routing policy (see cluster.RouterNames).
	Router string
	// CacheImages sizes each board's bitstream cache: 0 = the board
	// profile's derived budget, > 0 = that many images, < 0 = disabled.
	CacheImages int
}

// Label renders the candidate compactly ("3× zybo-z7-10 @200 MHz,
// least-outstanding, profile cache").
func (c Candidate) Label() string {
	cache := "profile cache"
	switch {
	case c.CacheImages > 0:
		cache = fmt.Sprintf("%d-image cache", c.CacheImages)
	case c.CacheImages < 0:
		cache = "no cache"
	}
	return fmt.Sprintf("%s @%.0f MHz, %s, %s", cluster.BoardsLabel(c.Boards), c.FreqMHz, c.Router, cache)
}

// Prediction is tier A's closed-form estimate for one candidate.
type Prediction struct {
	// Watts is the steady-state whole-fleet board power (baseline + P_PDR
	// at the thermal fixed point).
	Watts float64
	// P99US and Shed are the predicted fleet p99 sojourn (µs) and shed
	// fraction.
	P99US float64
	Shed  float64
	// UtilMax is the most-loaded board's utilisation.
	UtilMax float64
	// EnergyPerMB is the configuration energy cost (J/MB) of the hottest
	// operating point, from power.Model.EnergyPerMB.
	EnergyPerMB float64
	// Feasible reports whether the prediction meets the SLO.
	Feasible bool
}

// WhatIf perturbs the surrogate's reconfiguration-path model, used for the
// SRAM-PDR sensitivity note (Sec. VI: images resident in QDR SRAM, no
// SD-card staging, 1237.5 MB/s theoretical transfer).
type WhatIf struct {
	// XferMBs overrides the ICAP transfer rate (0 keeps the platform
	// model: min(4f, memory plateau)).
	XferMBs float64
	// NoStage removes the SD-card staging cost on cache misses.
	NoStage bool
}

// boardPoint caches the per-(platform, frequency) constants of the
// surrogate, so scoring a 3000-candidate space touches the fabric geometry
// once per distinct operating point, not once per candidate.
type boardPoint struct {
	imageBytes float64
	tIcapUS    float64 // image transfer + fixed per-load overhead
	tStageUS   float64 // SD-card staging on a cache miss
	capImages  float64 // profile-budget cache capacity in images
	watts      float64 // steady-state board power at the thermal fixed point
	energyMB   float64 // J/MB at the operating point
	rps        int     // partitions the board serves
}

// aspMix caches the workload mix's compute statistics.
type aspMix struct {
	meanUS, maxUS float64
	count         int
}

// Surrogate is the tier-A scorer. It caches per-profile constants and is
// not safe for concurrent use; the search scores sequentially (scoring is
// microseconds per candidate — parallelism lives in tier B).
type Surrogate struct {
	points map[string]boardPoint // key: platform|freq|whatif
	mixes  map[string]aspMix     // key: joined ASP list
}

// NewSurrogate builds an empty-cached scorer.
func NewSurrogate() *Surrogate {
	return &Surrogate{points: make(map[string]boardPoint), mixes: make(map[string]aspMix)}
}

// steadyWatts solves T = ambient + R_th·(P_PS + P_PDR(f,T)) by fixed-point
// iteration and returns the board power and die temperature there.
func steadyWatts(prof *platform.Profile, freqMHz float64) (watts, tempC float64) {
	m := power.NewModel(prof.Power)
	t := prof.BootAmbientC
	for i := 0; i < thermalIters; i++ {
		t = prof.BootAmbientC + prof.Thermal.RThermalCPerW*(prof.Power.PSActive+m.PDRAt(freqMHz, t))
	}
	return prof.Power.BoardBaseline + m.PDRAt(freqMHz, t), t
}

func (s *Surrogate) point(prof *platform.Profile, freqMHz float64, wi WhatIf) boardPoint {
	key := fmt.Sprintf("%s|%g|%g|%t", prof.Name, freqMHz, wi.XferMBs, wi.NoStage)
	if pt, ok := s.points[key]; ok {
		return pt
	}
	dev := prof.NewDevice()
	image := float64(bitstream.ExpectedSize(dev.RegionFrames(prof.RPs(dev)[0])))
	xfer := math.Min(4*freqMHz, prof.MemoryPlateauMBs(freqMHz)) // MB/s, stream vs memory side
	if wi.XferMBs > 0 {
		xfer = wi.XferMBs
	}
	stage := image / prof.IO.SDBytesPerSec * 1e6
	if wi.NoStage {
		stage = 0
	}
	watts, temp := steadyWatts(prof, freqMHz)
	pt := boardPoint{
		imageBytes: image,
		tIcapUS:    image/(xfer*1e6)*1e6 + prof.AnalyticFixedUS,
		tStageUS:   stage,
		capImages:  math.Floor(float64(prof.BitstreamCacheBytes()) / image),
		watts:      watts,
		energyMB:   power.NewModel(prof.Power).EnergyPerMB(freqMHz, temp, xfer),
		rps:        len(prof.RPNames()),
	}
	s.points[key] = pt
	return pt
}

func (s *Surrogate) mix(asps []string) (aspMix, error) {
	key := ""
	for _, a := range asps {
		key += a + "|"
	}
	if m, ok := s.mixes[key]; ok {
		return m, nil
	}
	var m aspMix
	for _, name := range asps {
		asp, err := workload.LibraryASP(name)
		if err != nil {
			return aspMix{}, err
		}
		us := asp.ComputeTime.Microseconds()
		m.meanUS += us
		if us > m.maxUS {
			m.maxUS = us
		}
		m.count++
	}
	if m.count == 0 {
		return aspMix{}, fmt.Errorf("plan: workload has no ASPs")
	}
	m.meanUS /= float64(m.count)
	s.mixes[key] = m
	return m, nil
}

// Score evaluates one candidate against the workload and SLO with the
// platform-model reconfiguration path. See ScoreWhatIf for the knobs.
func (s *Surrogate) Score(c Candidate, w Workload, slo SLO) (Prediction, error) {
	return s.ScoreWhatIf(c, w, slo, WhatIf{})
}

// ScoreWhatIf is Score with the reconfiguration path perturbed.
//
// The model, per board b with per-board arrival rate λ_b:
//
//	h  = 1/|ASPs|                     residency: the RP already holds the ASP
//	c  = min(1, cap/(|ASPs|·R))       cache hit on the images not resident
//	S  = (1−h)·(T_icap + (1−c)·T_stage)   mean reconfiguration demand
//	S_eff = S + C̄/R                   + compute share of the serial resource
//	u  = λ_b·S_eff
//	p99 = p99₀·(1 + κ·û/(1−û)) + backlog   (û = min(u, 0.9); backlog > 0
//	                                        only above u = 1, where the
//	                                        finite stream queues n_b·(1−1/u)
//	                                        requests behind each arrival)
//
// λ splits uniformly for the oblivious routers (round-robin, affinity) and
// proportionally to 1/S_eff for the load-aware ones (least-outstanding,
// weighted); the affinity router additionally pools the fleet's caches, so
// its effective per-board capacity scales with the board count. The fleet
// prediction takes the worst board's p99 and the rate-weighted shed sum.
func (s *Surrogate) ScoreWhatIf(c Candidate, w Workload, slo SLO, wi WhatIf) (Prediction, error) {
	if len(c.Boards) == 0 {
		return Prediction{}, fmt.Errorf("plan: candidate without boards")
	}
	common, err := cluster.CommonRPs(c.Boards)
	if err != nil {
		return Prediction{}, err
	}
	mix, err := s.mix(w.ASPs)
	if err != nil {
		return Prediction{}, err
	}
	n := len(c.Boards)
	r := float64(len(common))
	a := float64(mix.count)
	workingSet := a * r

	// Per-board effective service demand.
	sEff := make([]float64, n)
	p990 := make([]float64, n)
	var watts, energy float64
	for i, spec := range c.Boards {
		prof, ok := platform.Lookup(spec.Platform)
		if !ok {
			return Prediction{}, fmt.Errorf("plan: unknown platform %q", spec.Platform)
		}
		freq := c.FreqMHz
		if freq <= 0 {
			freq = prof.Clock.NominalMHz
		}
		pt := s.point(prof, freq, wi)
		capImages := pt.capImages
		switch {
		case c.CacheImages > 0:
			capImages = float64(c.CacheImages)
		case c.CacheImages < 0:
			capImages = 0
		}
		if c.Router == "affinity" {
			// Affinity shards the image space across boards, so the fleet's
			// caches pool: each board only needs its 1/n-th of the working
			// set resident.
			capImages *= float64(n)
		}
		hit := math.Min(1, capImages/workingSet)
		reconf := (1 - 1/a) * (pt.tIcapUS + (1-hit)*pt.tStageUS)
		sEff[i] = reconf + mix.meanUS/r
		p990[i] = reconf + mix.maxUS + sEff[i]
		watts += pt.watts
		if pt.energyMB > energy {
			energy = pt.energyMB
		}
	}

	// Split the offered rate across boards.
	share := make([]float64, n)
	switch c.Router {
	case "least-outstanding", "weighted":
		sum := 0.0
		for i := range share {
			share[i] = 1 / sEff[i]
			sum += share[i]
		}
		for i := range share {
			share[i] /= sum
		}
	default: // round-robin, affinity: oblivious uniform split
		for i := range share {
			share[i] = 1 / float64(n)
		}
	}

	pred := Prediction{Watts: watts, EnergyPerMB: energy}
	for i := range c.Boards {
		lambda := w.RatePerSec * share[i]
		u := lambda * sEff[i] * 1e-6
		if u > pred.UtilMax {
			pred.UtilMax = u
		}
		uHat := math.Min(u, utilCap)
		p99 := p990[i] * (1 + kappa*uHat/(1-uHat))
		if u > 1 {
			// Finite stream: the board ends the run with n_b·(1−1/u)
			// requests backlogged, and sheds the excess once queues fill.
			nb := float64(w.Requests) * share[i]
			p99 += nb * (1 - 1/u) * sEff[i]
			pred.Shed += share[i] * (1 - 1/u)
		}
		if p99 > pred.P99US {
			pred.P99US = p99
		}
	}
	pred.Feasible = pred.P99US <= slo.P99.Microseconds() && pred.Shed <= slo.MaxShed
	return pred, nil
}

// KneeCurve predicts a single board's p99-vs-offered-load curve at one
// operating point — the tier-A analogue of one E11 sweep, used by the
// calibration test to compare surrogate knees against simulated ones.
// cached=false disables the bitstream cache (every miss re-stages from SD).
func (s *Surrogate) KneeCurve(platformName string, freqMHz float64, cached bool, ratesPerSec []float64, w Workload) ([]sim.Point, error) {
	images := 0 // profile budget
	if !cached {
		images = -1
	}
	c := Candidate{
		Boards:      []cluster.BoardSpec{{Platform: platformName}},
		FreqMHz:     freqMHz,
		Router:      "round-robin",
		CacheImages: images,
	}
	out := make([]sim.Point, 0, len(ratesPerSec))
	for _, rate := range ratesPerSec {
		wr := w
		wr.RatePerSec = rate
		pred, err := s.Score(c, wr, SLO{P99: sim.Second, MaxShed: 1})
		if err != nil {
			return nil, err
		}
		out = append(out, sim.Point{X: rate, Y: pred.P99US})
	}
	return out, nil
}
