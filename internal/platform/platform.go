// Package platform centralises every device/board calibration constant of
// the reproduction in one place: a Profile bundles the fabric geometry and
// frame layout, the DRAM/HP-port model, the AXI per-transfer overheads and
// CDC synchroniser cost, the clock-wizard parameter space and lock time, the
// timing-violation critical paths, the power and thermal coefficients, the
// PS latencies and the board I/O (switch table, SD card, power meter).
//
// Profiles are registered by name and selectable everywhere a simulated
// board is built — zynq.Options, experiments.Config, pdr.WithPlatform and
// the -platform flags of pdrbench/pdrsim — so the same physics engine can
// replay the paper's ZedBoard or a differently calibrated part. The default
// profile ("zedboard") reproduces the seed physics bit-identically; no other
// internal package declares a device-calibration constant.
package platform

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/dma"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

// FabricSpec is the calibrated configuration-plane geometry of a part: how
// many clock-region rows and standard 13-column tiles it has, and how wide
// (in tiles) its reconfigurable partitions are cut.
type FabricSpec struct {
	// IDCode is the JTAG/configuration ID the bitstream loader checks.
	IDCode uint32
	// Rows and Tiles define the frame plane (see fabric.Geometry).
	Rows, Tiles int
	// RPTiles is the reconfigurable-partition span in tiles (3 on the
	// ZedBoard: 39 columns, 1308 frames, the 528,760-byte image of Table I).
	RPTiles int
}

// AXIParams are the calibrated AXI interconnect costs.
type AXIParams struct {
	// LiteWriteLatency / LiteReadLatency are the per-access AXI4-Lite costs
	// through the GP port and interconnect.
	LiteWriteLatency, LiteReadLatency sim.Duration
	// CDCSyncCycles is the per-burst clock-domain-crossing handshake cost in
	// cycles of the over-clocked destination domain.
	CDCSyncCycles float64
}

// ClockParams are the part's clocking resources as the Clock Wizard sees
// them.
type ClockParams struct {
	// RefClock is the PS-supplied reference (FCLK) feeding the MMCM.
	RefClock sim.Hz
	// Limits is the MMCM parameter space for the part and speed grade.
	Limits clock.Limits
	// LockTime is the worst-case MMCM re-lock time per re-programming.
	LockTime sim.Duration
	// NominalMHz is the specified (non-over-clocked) configuration-path
	// frequency the domain starts at.
	NominalMHz float64
}

// ThermalParams describe the board's thermal circuit.
type ThermalParams struct {
	// RThermalCPerW is the junction-to-ambient thermal resistance.
	RThermalCPerW float64
	// Tau is the physical thermal time constant of die + heat sink.
	Tau sim.Duration
	// Step is the integration step of the thermal model.
	Step sim.Duration
}

// PSParams are the processing-system latencies and the PCAP rate.
type PSParams struct {
	// DispatchLatency is GIC + context cost from IRQ assertion to handler
	// entry; HandlerOverhead is the C handler's own work.
	DispatchLatency, HandlerOverhead sim.Duration
	// PCAPBytesPerSec is the effective PCAP rate loading the static design.
	PCAPBytesPerSec float64
}

// BoardIO describes the board peripherals the test flow touches.
type BoardIO struct {
	// SwitchTableMHz maps the slide-switch value to the over-clock
	// frequency — the board's Table-I-equivalent sweep grid.
	SwitchTableMHz []float64
	// SDBytesPerSec is the SD card's streaming rate during boot.
	SDBytesPerSec float64
}

// Profile is one fully calibrated simulated platform.
type Profile struct {
	// Name is the registry key (e.g. "zedboard").
	Name string
	// Board and Part name the hardware (e.g. "Avnet ZedBoard", "xc7z020").
	Board, Part string
	// Summary is a one-line description for listings.
	Summary string
	// VariantOf names the base board this profile is a preset of; "" for a
	// distinct piece of silicon. Boards() returns only the latter.
	VariantOf string

	Fabric  FabricSpec
	DRAM    dram.Params
	AXI     AXIParams
	Clock   ClockParams
	Timing  timing.Model
	Power   power.Params
	Thermal ThermalParams
	PS      PSParams
	IO      BoardIO

	// BootAmbientC is the room temperature the board powers up in.
	BootAmbientC float64
	// SlowThermal selects the physical thermal time constant (Thermal.Tau)
	// instead of the fast one every other board uses (the
	// "zedboard-slow-thermal" preset).
	SlowThermal bool
	// AnalyticFixedUS is the calibrated fixed per-transfer overhead of the
	// analytic latency model (DMA programming, descriptor fetch/decode, IRQ
	// dispatch) in microseconds.
	AnalyticFixedUS float64
}

// Validate checks the profile for the invariants the construction paths
// assume. Register panics on a profile that fails it.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("platform: profile without a name")
	case p.Fabric.Rows < 1 || p.Fabric.Tiles < 1 || p.Fabric.RPTiles < 1:
		return fmt.Errorf("platform: %s: degenerate fabric %+v", p.Name, p.Fabric)
	case p.Fabric.RPTiles > p.Fabric.Tiles:
		return fmt.Errorf("platform: %s: RP span %d exceeds %d tiles", p.Name, p.Fabric.RPTiles, p.Fabric.Tiles)
	case p.DRAM.PortBytesPerSec <= 0:
		return fmt.Errorf("platform: %s: non-positive HP-port rate", p.Name)
	case p.DRAM.SizeBytes <= 0:
		return fmt.Errorf("platform: %s: non-positive DRAM size", p.Name)
	case p.AXI.CDCSyncCycles <= 0 || p.AXI.LiteWriteLatency <= 0 || p.AXI.LiteReadLatency <= 0:
		return fmt.Errorf("platform: %s: non-positive AXI cost", p.Name)
	case p.Clock.RefClock <= 0 || p.Clock.NominalMHz <= 0 || p.Clock.LockTime <= 0:
		return fmt.Errorf("platform: %s: non-positive clock reference", p.Name)
	case p.Clock.Limits.MultStep <= 0 || p.Clock.Limits.MultMin <= 0 ||
		p.Clock.Limits.MultMax < p.Clock.Limits.MultMin ||
		p.Clock.Limits.DivMin < 1 || p.Clock.Limits.DivMax < p.Clock.Limits.DivMin ||
		p.Clock.Limits.OutDivMin <= 0 || p.Clock.Limits.OutDivMax < p.Clock.Limits.OutDivMin ||
		p.Clock.Limits.VCOMin <= 0 || p.Clock.Limits.VCOMax < p.Clock.Limits.VCOMin ||
		p.Clock.Limits.MinPFD <= 0 || p.Clock.Limits.MaxPFD < p.Clock.Limits.MinPFD:
		return fmt.Errorf("platform: %s: degenerate MMCM limits %+v", p.Name, p.Clock.Limits)
	case len(p.IO.SwitchTableMHz) == 0:
		return fmt.Errorf("platform: %s: empty switch table", p.Name)
	case p.IO.SDBytesPerSec <= 0 || p.PS.PCAPBytesPerSec <= 0:
		return fmt.Errorf("platform: %s: non-positive boot-path rate", p.Name)
	case p.PS.DispatchLatency <= 0 || p.PS.HandlerOverhead <= 0:
		return fmt.Errorf("platform: %s: non-positive PS latency", p.Name)
	case p.Thermal.Tau <= 0 || p.Thermal.Step <= 0 || p.Thermal.RThermalCPerW <= 0:
		return fmt.Errorf("platform: %s: non-positive thermal constants", p.Name)
	}
	return nil
}

// Geometry is the part's configuration geometry.
func (p *Profile) Geometry() fabric.Geometry {
	return fabric.Geometry{
		Name:   p.Part,
		IDCode: p.Fabric.IDCode,
		Rows:   p.Fabric.Rows,
		Tiles:  p.Fabric.Tiles,
	}
}

// NewDevice builds the part's configuration plane.
func (p *Profile) NewDevice() *fabric.Device { return fabric.NewDevice(p.Geometry()) }

// RPs returns the profile's reconfigurable-partition plan on a device built
// from it.
func (p *Profile) RPs(d *fabric.Device) []fabric.Region {
	return fabric.TiledRPs(d.Geometry(), p.Fabric.RPTiles)
}

// RPNames lists the partition names of the profile's RP plan (RP1…RPn), by
// construction in the plan's order — the single source of truth is
// fabric.TiledRPs, so the names can never drift from the regions. The plan
// is computed from the geometry alone: no device is built.
func (p *Profile) RPNames() []string {
	rps := fabric.TiledRPs(p.Geometry(), p.Fabric.RPTiles)
	out := make([]string, len(rps))
	for i, rp := range rps {
		out[i] = rp.Name
	}
	return out
}

// TimingModel returns a private copy of the part's timing model (callers
// mutate derating state freely without aliasing the registry).
func (p *Profile) TimingModel() *timing.Model {
	m := p.Timing
	return &m
}

// AnalyticBurstUS is the analytic latency model's per-burst memory-side
// slot in microseconds: one DMA burst through the refresh-derated HP port,
// rounded to 5 decimals so the documented calibration stays stable.
func (p *Profile) AnalyticBurstUS() float64 {
	slot := float64(dma.BurstBytes) / p.DRAM.PortBytesPerSec * 1e6
	if p.DRAM.RefreshInterval > 0 {
		slot *= 1 + float64(p.DRAM.RefreshStall)/float64(p.DRAM.RefreshInterval)
	}
	return math.Round(slot*1e5) / 1e5
}

// BitstreamCacheBytes is the DRAM budget the reconfiguration service may
// pin for partial-bitstream images: 2% of system memory. On every
// registered board that comfortably holds the standard library's working
// set (ASPs × RPs); eviction pressure appears only when a deployment pins
// less, which the scheduling scenario (E12) sweeps explicitly.
func (p *Profile) BitstreamCacheBytes() int64 { return p.DRAM.SizeBytes / 50 }

// MemoryPlateauMBs predicts the memory-side throughput ceiling at the given
// over-clock frequency: one BurstBytes burst per (port slot + CDC
// handshake). This is the plateau Table I measures above the knee.
func (p *Profile) MemoryPlateauMBs(freqMHz float64) float64 {
	slotUS := p.AnalyticBurstUS() + p.AXI.CDCSyncCycles/freqMHz
	return float64(dma.BurstBytes) / slotUS
}

// StreamKneeMHz predicts where the stream-side 4·f MB/s line crosses the
// memory-side plateau — the knee frequency of Fig. 5, solved from
// 4f·(slot + cdc/f) = BurstBytes.
func (p *Profile) StreamKneeMHz() float64 {
	return (float64(dma.BurstBytes) - 4*p.AXI.CDCSyncCycles) / (4 * p.AnalyticBurstUS())
}

func (p *Profile) String() string {
	return fmt.Sprintf("%s (%s, %s)", p.Name, p.Board, p.Part)
}
