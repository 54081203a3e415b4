package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/dma"
	"repro/internal/platform"
)

// Recommendation is the Optimizer's output: the operating point the paper's
// methodology arrives at (Sec. IV-B / VII).
type Recommendation struct {
	// FreqMHz is the chosen over-clock frequency.
	FreqMHz float64
	// ThroughputMBs and PDRWatts are the measured values at that point.
	ThroughputMBs float64
	PDRWatts      float64
	// PpW is the achieved power efficiency.
	PpW float64
	// GuardBandMHz is the robustness ceiling (worst-case temperature,
	// derated) the choice was clipped to.
	GuardBandMHz float64
}

// Optimizer implements the paper's "methodology to achieve the most power
// efficient implementation": sweep the operational frequencies, measure
// throughput and power, pick the maximum performance-per-watt point, and
// clip it to a temperature guard band so the choice stays robust in harsh
// environments.
type Optimizer struct {
	Profiler *PowerProfiler
	// WorstTempC is the hottest die temperature the deployment must
	// tolerate (the paper stresses to 100 °C).
	WorstTempC float64
	// Margin is the relative guard band below the worst-case timing limit.
	Margin float64
}

// Choose runs the measurement sweep at the current temperature and returns
// the most power-efficient robust operating point.
func (o *Optimizer) Choose(freqsMHz []float64) (Recommendation, error) {
	worst := o.WorstTempC
	if worst == 0 {
		worst = 100
	}
	margin := o.Margin
	if margin == 0 {
		margin = 0.10
	}
	guard := o.Profiler.C.p.Timing.GuardBandFreq(worst, margin)
	guardMHz := guard.MHzValue()

	eligible := make([]float64, 0, len(freqsMHz))
	for _, f := range freqsMHz {
		if f <= guardMHz {
			eligible = append(eligible, f)
		}
	}
	if len(eligible) == 0 {
		return Recommendation{}, fmt.Errorf("core: no candidate frequency below guard band %.1f MHz", guardMHz)
	}
	sort.Float64s(eligible)

	points, err := o.Profiler.GridAtCurrent(eligible)
	if err != nil {
		return Recommendation{}, err
	}
	best := Recommendation{GuardBandMHz: guardMHz}
	for _, pt := range points {
		if pt.PpW > best.PpW {
			best.FreqMHz = pt.FreqMHz
			best.ThroughputMBs = pt.ThroughputMBs
			best.PDRWatts = pt.PDRWatts
			best.PpW = pt.PpW
		}
	}
	if best.FreqMHz == 0 {
		return Recommendation{}, fmt.Errorf("core: no operational point found")
	}
	return best, nil
}

// Recovery describes what the RobustGuard did about a failed load.
type Recovery struct {
	// Attempts lists every attempt, the last being the successful one (or
	// the final failure).
	Attempts []Result
	// Recovered reports whether a retry produced a CRC-valid configuration.
	Recovered bool
	// FallbackMHz is the frequency of the final attempt.
	FallbackMHz float64
	// TotalUS is the wall time of the whole episode, the price of the
	// failed over-clock.
	TotalUS float64
}

// RobustGuard wraps Load with the recovery policy the CRC monitor enables:
// if the transfer hangs or verifies invalid, fall back to the safe 100 MHz
// nominal and reload, at most guardRetries times. Without the CRC block
// (e.g. VF-2012) the failure would go undetected.
type RobustGuard struct {
	C *Controller
}

// The guard's fallback frequency and recovery-attempt bound.
const (
	guardFallbackMHz = 100
	guardRetries     = 2
)

// Load attempts the reconfiguration at the current frequency and recovers
// on failure.
func (g *RobustGuard) Load(rp string, bs *bitstream.Bitstream) (Recovery, error) {
	start := g.C.p.Kernel.Now()
	var rec Recovery
	res, err := g.C.Load(rp, bs)
	if err != nil {
		return rec, err
	}
	rec.Attempts = append(rec.Attempts, res)
	rec.FallbackMHz = res.FreqMHz
	for attempt := 0; !ok(res) && attempt < guardRetries; attempt++ {
		if _, err := g.C.SetFrequencyMHz(guardFallbackMHz); err != nil {
			return rec, err
		}
		res, err = g.C.Load(rp, bs)
		if err != nil {
			return rec, err
		}
		rec.Attempts = append(rec.Attempts, res)
		rec.FallbackMHz = res.FreqMHz
	}
	rec.Recovered = ok(res)
	rec.TotalUS = g.C.p.Kernel.Now().Sub(start).Microseconds()
	return rec, nil
}

// ok is the guard's acceptance predicate: the load completed visibly and
// verified.
func ok(r Result) bool { return r.IRQReceived && r.CRCValid }

// ExpectedLatencyUSOn predicts the configuration latency for a bitstream at
// a frequency on the given platform, from the calibrated analytic model
// (DESIGN.md §2); used for documentation and sanity checks, not by the
// controller itself.
func ExpectedLatencyUSOn(prof *platform.Profile, sizeBytes int, freqMHz float64) float64 {
	words := float64(sizeBytes-bitstream.HeaderBytes) / 4
	streamUS := words / freqMHz // 4 bytes per cycle ⇒ words/f µs
	// Memory side: one DMA burst per refresh-derated port slot plus the CDC
	// handshake in the over-clocked domain.
	bursts := math.Ceil(words * 4 / dma.BurstBytes)
	memUS := bursts * (prof.AnalyticBurstUS() + prof.AXI.CDCSyncCycles/freqMHz)
	if memUS > streamUS {
		streamUS = memUS
	}
	return streamUS + prof.AnalyticFixedUS
}

// ExpectedLatencyUS is ExpectedLatencyUSOn for the default (ZedBoard)
// platform.
func ExpectedLatencyUS(sizeBytes int, freqMHz float64) float64 {
	return ExpectedLatencyUSOn(platform.Default(), sizeBytes, freqMHz)
}
