// Package zynq assembles the Zynq-7000 SoC model: the Processing System
// (CPU, interrupt dispatch, global timer), the Programmable Logic with the
// paper's configuration-path design (Clock Wizard, DMA, ICAP, CRC read-back
// monitor), the HP-port/DDR path, PCAP static configuration, and the
// physical coupling between power, temperature and timing.
package zynq

import (
	"fmt"

	"repro/internal/axi"
	"repro/internal/clock"
	"repro/internal/crcmon"
	"repro/internal/dma"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/timing"
)

// IRQ identifies an interrupt line into the PS GIC.
type IRQ int

// Interrupt lines used by the design (Fig. 2 of the paper).
const (
	IRQDMADone IRQ = iota + 61 // PL-to-PS shared peripheral interrupts
	IRQCRCResult
	IRQRPStatus
)

// PS models the processing system's pieces the experiments touch.
type PS struct {
	kernel *sim.Kernel

	// DispatchLatency is GIC + context cost from line assertion to handler
	// entry; HandlerOverhead is the C handler's own work (status reads,
	// timer stop). Both are part of the calibrated fixed per-transfer cost.
	DispatchLatency sim.Duration
	HandlerOverhead sim.Duration

	handlers map[IRQ]func()
	timerOn  bool
	timerT0  sim.Time
}

// NewPS creates the processing system with the profile's calibrated
// latencies.
func NewPS(k *sim.Kernel, params platform.PSParams) *PS {
	return &PS{
		kernel:          k,
		DispatchLatency: params.DispatchLatency,
		HandlerOverhead: params.HandlerOverhead,
		handlers:        make(map[IRQ]func()),
	}
}

// Handle installs an interrupt handler.
func (ps *PS) Handle(irq IRQ, fn func()) { ps.handlers[irq] = fn }

// Raise asserts an interrupt line; the handler runs after dispatch and its
// own overhead (the handler-visible time is when its work finishes, which is
// when the C program reads the timer).
func (ps *PS) Raise(irq IRQ) {
	fn, ok := ps.handlers[irq]
	if !ok {
		return // unhandled interrupts are dropped, as with a masked GIC line
	}
	ps.kernel.Schedule(ps.DispatchLatency+ps.HandlerOverhead, fn)
}

// TimerStart arms the C-timer (XTime_GetTime-style measurement).
func (ps *PS) TimerStart() {
	ps.timerOn = true
	ps.timerT0 = ps.kernel.Now()
}

// TimerStop reads the timer; it returns the elapsed duration since
// TimerStart.
func (ps *PS) TimerStop() sim.Duration {
	if !ps.timerOn {
		return 0
	}
	ps.timerOn = false
	return ps.kernel.Now().Sub(ps.timerT0)
}

// Platform is the assembled SoC + configuration-path design.
type Platform struct {
	Kernel *sim.Kernel
	PS     *PS

	// Profile is the calibration this platform was built from.
	Profile *platform.Profile

	Device *fabric.Device
	Memory *fabric.Memory
	RPs    []fabric.Region

	// OverclockDomain clocks the DMA/ICAP/CRC blocks (the paper's
	// "OVERCLOCK" net); Wizard re-programs it.
	OverclockDomain *clock.Domain
	Wizard          *clock.Wizard
	// ClockManager provides the per-RP ASP clocks (CLK 1–5 in Fig. 1).
	ClockManager *clock.Manager

	Timing *timing.Model
	Die    *thermal.Die
	Gun    *thermal.HeatGun
	Power  *power.Model

	DDR      *dram.Controller
	LiteBus  *axi.LiteBus
	DMA      *dma.Engine
	ICAP     *icap.Port
	Monitors map[string]*crcmon.Monitor

	plConfigured bool
}

// Options tune platform construction.
type Options struct {
	// Seed drives all stochastic models (corruption patterns).
	Seed uint64
	// Profile selects the calibrated platform (nil ⇒ the registry default,
	// the paper's ZedBoard).
	Profile *platform.Profile
	// DRAMParams overrides the memory-path parameters (ablations); nil
	// keeps the profile's calibration.
	DRAMParams *dram.Params
}

// The fast thermal time constant and integration step every board uses
// unless its profile sets SlowThermal: die temperature settles within a
// fraction of a simulated second, so experiments need not wait out the
// physical heating transient.
const (
	fastThermalTau  = 50 * sim.Millisecond
	fastThermalStep = sim.Millisecond
)

// NewPlatform builds the full SoC with the paper's PL design loaded
// (statically, via PCAP) and all physical couplings wired. The board's
// environment is its profile's: it boots in the profile's ambient at the
// profile's nominal configuration clock.
func NewPlatform(opts Options) (*Platform, error) {
	prof := opts.Profile
	if prof == nil {
		prof = platform.Default()
	}
	k := sim.NewKernel()
	dev := prof.NewDevice()
	p := &Platform{
		Kernel:   k,
		PS:       NewPS(k, prof.PS),
		Profile:  prof,
		Device:   dev,
		Memory:   fabric.NewMemory(dev),
		RPs:      prof.RPs(dev),
		Timing:   prof.TimingModel(),
		Monitors: make(map[string]*crcmon.Monitor),
	}

	p.OverclockDomain = clock.NewDomain("overclock", sim.Hz(prof.Clock.NominalMHz*1e6))
	wiz, err := clock.NewWizard(k, clock.WizardConfig{
		Fin:      prof.Clock.RefClock,
		Limits:   prof.Clock.Limits,
		LockTime: prof.Clock.LockTime,
	}, p.OverclockDomain)
	if err != nil {
		return nil, fmt.Errorf("zynq: %w", err)
	}
	p.Wizard = wiz
	p.ClockManager = clock.NewManager(prof.Clock.RefClock, "clk1", "clk2", "clk3", "clk4", "clk5")

	// Power model driven by live frequency/temperature.
	p.Power = power.NewModel(prof.Power)
	p.Power.FreqMHz = func() float64 { return p.OverclockDomain.Freq().MHzValue() }
	p.Power.PLActive = func() bool { return p.plConfigured }

	// Thermal model heated by the chip, measured by the XADC, in the
	// profile's boot ambient. Its time constant is the fast one unless the
	// profile forces the physical constant (slow-thermal presets).
	tcfg := thermal.Config{
		AmbientC: prof.BootAmbientC,
		RThermal: prof.Thermal.RThermalCPerW,
		Tau:      fastThermalTau,
		Step:     fastThermalStep,
	}
	if prof.SlowThermal {
		tcfg.Tau = prof.Thermal.Tau
		tcfg.Step = prof.Thermal.Step
	}
	tcfg.Power = func() float64 { return p.Power.ChipHeat() }
	p.Die = thermal.NewDie(k, tcfg)
	p.Gun = thermal.NewHeatGun(p.Die)
	p.Power.TempC = func() float64 { return p.Die.TempC() }

	// Memory path and configuration path.
	dparams := prof.DRAM
	if opts.DRAMParams != nil {
		dparams = *opts.DRAMParams
	}
	p.DDR = dram.NewController(k, dparams)
	p.LiteBus = axi.NewLiteBus(k, prof.AXI.LiteWriteLatency, prof.AXI.LiteReadLatency)
	p.ICAP = icap.New(icap.Config{
		Kernel: k,
		Domain: p.OverclockDomain,
		Memory: p.Memory,
		Timing: p.Timing,
		TempC:  func() float64 { return p.Die.TempC() },
		Seed:   opts.Seed,
	})
	p.DMA = dma.New(dma.Config{
		Kernel:        k,
		Bus:           p.LiteBus,
		DRAM:          p.DDR,
		Domain:        p.OverclockDomain,
		CDCSyncCycles: prof.AXI.CDCSyncCycles,
		IRQGate: func() bool {
			return p.Timing.ClassifyNominal(p.OverclockDomain.Freq(), p.Die.TempC()) == timing.OK
		},
	})
	for _, rp := range p.RPs {
		p.Monitors[rp.Name] = crcmon.New(crcmon.Config{
			Kernel: k,
			Port:   p.ICAP,
			Timing: p.Timing,
			TempC:  func() float64 { return p.Die.TempC() },
			Region: rp,
		})
	}
	return p, nil
}

// ConfigureStatic models the PCAP loading the static design at boot
// (the full bitstream cannot go through the ICAP — the ICAP is part of it).
// It advances simulated time by the PCAP transfer and marks the PL live.
func (p *Platform) ConfigureStatic() {
	// PCAP moves the full image at its effective rate (the ZedBoard's
	// ~3.3 MB at ~145 MB/s ≈ 22.6 ms).
	full := float64(p.Device.ConfigBytes())
	p.Kernel.RunFor(sim.FromSeconds(full / p.Profile.PS.PCAPBytesPerSec))
	p.plConfigured = true
}

// PLConfigured reports whether the static design is live.
func (p *Platform) PLConfigured() bool { return p.plConfigured }

// RP returns the named reconfigurable partition.
func (p *Platform) RP(name string) (fabric.Region, error) {
	for _, rp := range p.RPs {
		if rp.Name == name {
			return rp, nil
		}
	}
	return fabric.Region{}, fmt.Errorf("zynq: unknown RP %q", name)
}

// SetOverclock re-programs the Clock Wizard and blocks simulated time until
// the MMCM re-locks. It returns the exact achieved frequency.
func (p *Platform) SetOverclock(target sim.Hz) (sim.Hz, error) {
	locked := false
	actual, err := p.Wizard.SetRate(target, func(sim.Hz) { locked = true })
	if err != nil {
		return 0, err
	}
	for !locked {
		if !p.Kernel.Step() {
			return 0, fmt.Errorf("zynq: wizard never locked")
		}
	}
	return actual, nil
}

// Classify returns the timing outcome at the current operating point.
func (p *Platform) Classify() timing.Outcome {
	return p.Timing.ClassifyNominal(p.OverclockDomain.Freq(), p.Die.TempC())
}
