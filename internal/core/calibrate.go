package core

import (
	"context"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/power"
	"repro/internal/sim"
)

// SweepPoint is one row of a frequency sweep (Table I / Fig. 5).
type SweepPoint struct {
	RequestedMHz float64
	Result       Result
}

// Calibrator runs the paper's frequency sweep: for each requested frequency
// it re-programs the Clock Wizard, performs one partial reconfiguration and
// records latency/throughput/CRC.
type Calibrator struct {
	C *Controller
	// RP is the target partition (default RP1).
	RP string
	// Bitstream is the image to load; the paper used two ~529 KB images.
	Bitstream *bitstream.Bitstream
}

// Sweep measures every requested frequency in order at the current die
// temperature. It checks ctx between points, so a campaign worker can
// abandon a sweep mid-grid without waiting for the remaining loads.
func (cal *Calibrator) Sweep(ctx context.Context, freqsMHz []float64) ([]SweepPoint, error) {
	rp := cal.RP
	if rp == "" {
		rp = "RP1"
	}
	out := make([]SweepPoint, 0, len(freqsMHz))
	for _, f := range freqsMHz {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := cal.C.SetFrequencyMHz(f); err != nil {
			return nil, fmt.Errorf("core: sweep at %v MHz: %w", f, err)
		}
		res, err := cal.C.Load(rp, cal.Bitstream)
		if err != nil {
			return nil, fmt.Errorf("core: sweep at %v MHz: %w", f, err)
		}
		cal.C.waitForIdle()
		out = append(out, SweepPoint{RequestedMHz: f, Result: res})
	}
	return out, nil
}

// StressCell is one cell of the temperature-stress matrix (Sec. IV-A).
type StressCell struct {
	FreqMHz float64
	TempC   float64
	Result  Result
	// Passed means the configuration data survived (CRC valid) — the
	// paper's success criterion for the stress test.
	Passed bool
}

// StressMatrix re-runs the sweep at each die temperature, reproducing the
// heat-gun experiment: the gun servos the die to each target before the
// transfers run. It checks ctx between cells.
func (cal *Calibrator) StressMatrix(ctx context.Context, freqsMHz, tempsC []float64) ([]StressCell, error) {
	rp := cal.RP
	if rp == "" {
		rp = "RP1"
	}
	var out []StressCell
	for _, temp := range tempsC {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, ok := cal.C.p.Gun.StabilizeAt(temp, 0.5, 10*sim.Minute); !ok {
			return nil, fmt.Errorf("core: heat gun failed to reach %v°C", temp)
		}
		for _, f := range freqsMHz {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if _, err := cal.C.SetFrequencyMHz(f); err != nil {
				return nil, fmt.Errorf("core: stress at %v MHz: %w", f, err)
			}
			res, err := cal.C.Load(rp, cal.Bitstream)
			if err != nil {
				return nil, fmt.Errorf("core: stress at %v MHz/%v°C: %w", f, temp, err)
			}
			cal.C.waitForIdle()
			out = append(out, StressCell{FreqMHz: f, TempC: temp, Result: res, Passed: res.CRCValid})
		}
	}
	cal.C.p.Gun.Off()
	return out, nil
}

// PowerPoint is one Fig. 6 measurement: P_PDR at a frequency/temperature.
type PowerPoint struct {
	FreqMHz float64
	TempC   float64
	// PDRWatts is the baseline-subtracted board reading (P_f^T − P0).
	PDRWatts float64
	// ThroughputMBs is the concurrently measured transfer rate (0 when the
	// point is non-operational).
	ThroughputMBs float64
	// PpW is the paper's power efficiency in MB/J.
	PpW float64
}

// PowerProfiler reproduces the Fig. 6 / Table II measurement: run
// reconfigurations while reading the board's current-sense headers.
type PowerProfiler struct {
	C     *Controller
	Meter *power.Meter
	// RP and Bitstream as in Calibrator.
	RP        string
	Bitstream *bitstream.Bitstream
}

// Grid measures P_PDR over the frequency × temperature grid, checking ctx
// between cells.
func (pp *PowerProfiler) Grid(ctx context.Context, freqsMHz, tempsC []float64) ([]PowerPoint, error) {
	return pp.grid(ctx, freqsMHz, tempsC, true)
}

// GridAtCurrent measures the frequencies at whatever temperature the die is
// naturally running at (no heat gun) — what the optimizer's field
// calibration does.
func (pp *PowerProfiler) GridAtCurrent(freqsMHz []float64) ([]PowerPoint, error) {
	return pp.grid(context.Background(), freqsMHz, []float64{pp.C.p.Die.TempC()}, false)
}

func (pp *PowerProfiler) grid(ctx context.Context, freqsMHz, tempsC []float64, useGun bool) ([]PowerPoint, error) {
	rp := pp.RP
	if rp == "" {
		rp = "RP1"
	}
	var out []PowerPoint
	for _, temp := range tempsC {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if useGun {
			if _, ok := pp.C.p.Gun.StabilizeAt(temp, 0.5, 10*sim.Minute); !ok {
				return nil, fmt.Errorf("core: heat gun failed to reach %v°C", temp)
			}
		}
		for _, f := range freqsMHz {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if _, err := pp.C.SetFrequencyMHz(f); err != nil {
				return nil, fmt.Errorf("core: power grid at %v MHz: %w", f, err)
			}
			// Run a transfer while the meter integrates, then read.
			res, err := pp.C.Load(rp, pp.Bitstream)
			if err != nil {
				return nil, fmt.Errorf("core: power grid at %v MHz/%v°C: %w", f, temp, err)
			}
			pp.C.waitForIdle()
			pdr := pp.Meter.ReadPDR()
			pt := PowerPoint{FreqMHz: f, TempC: temp, PDRWatts: pdr}
			if res.IRQReceived {
				pt.ThroughputMBs = res.ThroughputMBs
				pt.PpW = power.PerformancePerWatt(res.ThroughputMBs, pdr)
			}
			out = append(out, pt)
		}
	}
	if useGun {
		pp.C.p.Gun.Off()
	}
	return out, nil
}
