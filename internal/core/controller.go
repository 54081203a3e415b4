// Package core implements the paper's contribution: a dynamic partial
// reconfiguration controller built from standard IP blocks (AXI DMA + ICAP)
// that boosts throughput by over-clocking them beyond specification, made
// robust by a CRC bitstream read-back monitor that detects when the
// over-clock has gone too far.
//
// On top of the raw controller it provides the measurement machinery of the
// paper's evaluation: the frequency Calibrator (Table I / Fig. 5), the
// temperature StressMatrix (Sec. IV-A), the PowerProfiler (Fig. 6 /
// Table II), the power-efficiency Optimizer (the 200 MHz knee), and a
// RobustGuard that recovers from failed over-clocked transfers — the
// operational payoff of having the CRC monitor.
package core

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/crcmon"
	"repro/internal/dma"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/zynq"
)

// Result describes one partial-reconfiguration attempt. Every field but
// Outcome is what the paper's software could observe: latency via the
// interrupt and the CRC read-back verdict. Outcome is the simulation's
// timing classification, which E10's cross-platform table prints. Tests
// that need the configuration memory's actual state compare the region with
// the image themselves, through fabric.Memory.RegionEqual.
type Result struct {
	// RP is the targeted partition.
	RP string
	// FreqMHz is the over-clock frequency during the transfer.
	FreqMHz float64
	// TempC is the die temperature at transfer start.
	TempC float64

	// IRQReceived reports whether the completion interrupt arrived. When
	// false, LatencyUS is meaningless (the paper's "N/A no interrupt").
	IRQReceived bool
	// LatencyUS is the C-timer reading: from starting the DMA to the
	// completion handler.
	LatencyUS float64
	// ThroughputMBs is bitstream size / latency (0 when no interrupt).
	ThroughputMBs float64
	// CRCValid is the read-back monitor's verdict.
	CRCValid bool
	// CRCByIRQ reports whether the verdict arrived by interrupt (true) or
	// had to be polled because the monitor's IRQ was lost (false).
	CRCByIRQ bool

	// Outcome is the oracle's timing classification.
	Outcome timing.Outcome
}

// Controller drives over-clocked partial reconfiguration on a platform.
type Controller struct {
	p *zynq.Platform

	loads uint64
}

// loadTimeoutFactor scales the IRQ wait relative to the expected transfer
// time; the paper's operators concluded "no interrupt" after a similar
// grace period.
const loadTimeoutFactor = 4

// New creates a controller. The platform's static design must be configured
// (Board.Boot or Platform.ConfigureStatic) before loads are issued.
func New(p *zynq.Platform) *Controller {
	return &Controller{p: p}
}

// Platform returns the underlying platform.
func (c *Controller) Platform() *zynq.Platform { return c.p }

// Loads returns the number of Load calls.
func (c *Controller) Loads() uint64 { return c.loads }

// SetFrequencyMHz re-programs the over-clock domain through the Clock
// Wizard (costing the MMCM re-lock time) and returns the exact frequency.
func (c *Controller) SetFrequencyMHz(f float64) (float64, error) {
	actual, err := c.p.SetOverclock(sim.Hz(f * 1e6))
	if err != nil {
		return 0, err
	}
	return actual.MHzValue(), nil
}

// stepUntil runs the kernel until cond holds or the simulated deadline
// passes; it reports whether cond held.
func (c *Controller) stepUntil(cond func() bool, timeout sim.Duration) bool {
	deadline := c.p.Kernel.Now().Add(timeout)
	for !cond() {
		next := c.p.Kernel.NextEventTime()
		if next == sim.Never || next > deadline {
			c.p.Kernel.RunUntil(deadline)
			return cond()
		}
		c.p.Kernel.Step()
	}
	return true
}

// Load performs one partial reconfiguration of the named RP and waits for
// both the completion interrupt (or its timeout) and the CRC read-back
// verdict. It mirrors the paper's measurement flow exactly: C-timer around
// the DMA+ICAP transfer, CRC verdict from the background monitor afterwards.
func (c *Controller) Load(rpName string, bs *bitstream.Bitstream) (Result, error) {
	if !c.p.PLConfigured() {
		return Result{}, fmt.Errorf("core: static design not configured")
	}
	rp, err := c.p.RP(rpName)
	if err != nil {
		return Result{}, err
	}
	if want := c.p.Device.RegionFrames(rp); bs.Header.Frames != want {
		return Result{}, fmt.Errorf("core: bitstream has %d frames, RP %s needs %d", bs.Header.Frames, rpName, want)
	}
	mon := c.p.Monitors[rpName]
	c.loads++

	res := Result{
		RP:      rpName,
		FreqMHz: c.p.OverclockDomain.Freq().MHzValue(),
		TempC:   c.p.Die.TempC(),
	}

	// Read-back must not interleave with configuration writes.
	mon.Suspend()
	c.p.ICAP.Reset()

	// Arm the completion interrupt and the timer, then start the DMA.
	irqDone := false
	var latency sim.Duration
	c.p.PS.Handle(zynq.IRQDMADone, func() {
		latency = c.p.PS.TimerStop()
		irqDone = true
	})
	c.p.PS.TimerStart()
	words := bs.Words()
	if err := c.p.DMA.Transfer(words, c.p.ICAP, func(dma.Result) {
		c.p.PS.Raise(zynq.IRQDMADone)
	}); err != nil {
		mon.Resume()
		return Result{}, fmt.Errorf("core: %w", err)
	}

	// Wait for the interrupt, with the operator's timeout.
	expected := sim.FromSeconds(float64(len(words)) / (4e6 * res.FreqMHz))
	timeout := sim.Duration(float64(expected)*loadTimeoutFactor) + sim.Millisecond
	if c.stepUntil(func() bool { return irqDone }, timeout) {
		res.IRQReceived = true
		res.LatencyUS = latency.Microseconds()
		res.ThroughputMBs = float64(bs.Size()) / res.LatencyUS
	} else {
		// Hang: make sure the silent data movement finished before the CRC
		// phase (the read-back scan needs a settled memory image).
		c.stepUntil(func() bool { return c.p.DMA.Completed() }, timeout)
	}

	// CRC read-back verdict: install the golden reference and let the
	// monitor scan. When the monitor's interrupt is lost (over-clocked
	// control path), poll its status register instead — the paper's
	// "CRC valid / not valid" column was obtained both ways. The bitstream
	// caches its golden CRC, so repeated loads skip the recompute.
	mon.SetGoldenCRC(bs.FrameCRC())
	var verdict *crcmon.Result
	mon.OnResult = func(r crcmon.Result) {
		if verdict == nil {
			v := r
			verdict = &v
		}
	}
	baseline := mon.ScansCompleted()
	mon.Start()
	mon.Resume()
	scanTime := sim.FromSeconds(float64(bs.Header.Frames*101) / (1e6 * res.FreqMHz) * 3)
	gotScan := c.stepUntil(func() bool {
		return verdict != nil || mon.ScansCompleted() > baseline
	}, scanTime+sim.Millisecond)
	mon.OnResult = nil
	mon.Stop() // scan on demand per load; callers may re-Start for background use
	if verdict != nil {
		res.CRCValid = verdict.Valid
		res.CRCByIRQ = true
	} else if gotScan {
		last, ok := mon.Last()
		res.CRCValid = ok && last.Valid
	}

	res.Outcome = c.p.Classify()
	return res, nil
}

// waitForIdle drains in-flight work (used between experiment points).
func (c *Controller) waitForIdle() {
	c.stepUntil(func() bool { return !c.p.DMA.Busy() }, 100*sim.Millisecond)
}
