// Package workload synthesises the application side of the paper's
// acceleration framework: a library of Application-Specific Processors
// (ASPs) with realistic partial-bitstream content, and reconfiguration
// request traces (the on-demand ASP swapping the introduction motivates).
package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// ASP describes one accelerator personality.
type ASP struct {
	// Name identifies the accelerator.
	Name string
	// FillFraction is how much of the RP the design uses (affects the
	// bitstream's zero density and hence its compressibility).
	FillFraction float64
	// ComputeTime is how long one task on this ASP runs.
	ComputeTime sim.Duration
	// ClockMHz is the ASP's own clock constraint (served by the Clock
	// Manager; each RP can run at its own rate).
	ClockMHz float64
	// MemBandwidthMBs is the ASP's data appetite while computing: each RP
	// has its own DMA on an HP port (Fig. 1), so a running accelerator
	// contends with the configuration path for the memory interface.
	MemBandwidthMBs float64
	// Seed individualises the frame content.
	Seed uint64
}

// library is the standard ASP set: the kinds of accelerators the paper's
// introduction names (crypto, DSP, web/serving helpers).
var library = []ASP{
	{Name: "fir128", FillFraction: 0.55, ComputeTime: 240 * sim.Microsecond, ClockMHz: 150, MemBandwidthMBs: 120, Seed: 101},
	{Name: "fft1k", FillFraction: 0.70, ComputeTime: 410 * sim.Microsecond, ClockMHz: 125, MemBandwidthMBs: 200, Seed: 102},
	{Name: "aes-gcm", FillFraction: 0.62, ComputeTime: 180 * sim.Microsecond, ClockMHz: 200, MemBandwidthMBs: 400, Seed: 103},
	{Name: "sha3", FillFraction: 0.48, ComputeTime: 150 * sim.Microsecond, ClockMHz: 180, MemBandwidthMBs: 90, Seed: 104},
	{Name: "matmul8", FillFraction: 0.80, ComputeTime: 900 * sim.Microsecond, ClockMHz: 100, MemBandwidthMBs: 250, Seed: 105},
	{Name: "decimal-fpu", FillFraction: 0.66, ComputeTime: 300 * sim.Microsecond, ClockMHz: 140, MemBandwidthMBs: 60, Seed: 106},
}

// Library returns the standard ASP set used by the examples and benchmarks
// (a fresh copy the caller may modify).
func Library() []ASP { return slices.Clone(library) }

// LibraryNames lists the library's ASP names in library order — the ASP
// set a trace is validated against.
func LibraryNames() []string {
	names := make([]string, len(library))
	for i, a := range library {
		names[i] = a.Name
	}
	return names
}

// LibraryASP looks an ASP up by name.
func LibraryASP(name string) (ASP, error) {
	for _, a := range library {
		if a.Name == name {
			return a, nil
		}
	}
	return ASP{}, fmt.Errorf("workload: unknown ASP %q", name)
}

// Frames generates the ASP's configuration frames for a region: a used
// prefix of each frame proportional to FillFraction, clustered zeros
// elsewhere, and a fraction of fully unused frames — the structure real
// partial bitstreams have (and what makes them compressible). The frames
// are consecutive views of one backing array.
func (a ASP) Frames(dev *fabric.Device, rp fabric.Region) [][]uint32 {
	rng := sim.NewRNG(a.Seed ^ uint64(rp.Row)<<32 ^ uint64(rp.ColStart))
	n := dev.RegionFrames(rp)
	frames := make([][]uint32, n)
	words := make([]uint32, n*fabric.FrameWords)
	for i := range frames {
		f := words[i*fabric.FrameWords : (i+1)*fabric.FrameWords : (i+1)*fabric.FrameWords]
		if rng.Float64() < a.FillFraction {
			used := int(a.FillFraction * fabric.FrameWords)
			if used < 1 {
				used = 1
			}
			jitter := rng.Intn(20) - 10
			used += jitter
			if used < 1 {
				used = 1
			}
			if used > fabric.FrameWords {
				used = fabric.FrameWords
			}
			for w := 0; w < used; w++ {
				f[w] = rng.Uint32()
			}
		}
		frames[i] = f
	}
	return frames
}

// Bitstream builds the ASP's partial bitstream for the region.
func (a ASP) Bitstream(dev *fabric.Device, rp fabric.Region) (*bitstream.Bitstream, error) {
	return bitstream.Build(dev, rp, a.Name, a.Frames(dev, rp))
}

// Request is one entry of a reconfiguration trace: at time At, partition RP
// must run ASP (loading it first if not resident). The service-layer fields
// are optional: a zero Tenant/Deadline request behaves exactly as before.
type Request struct {
	At  sim.Duration
	RP  string
	ASP string
	// Tenant attributes the request to a traffic source (multi-tenant
	// serving); "" is anonymous.
	Tenant string
	// Class names the request's SLO class (see SLOClass); "" is unclassed.
	Class string
	// Deadline is the latency budget relative to At (0 = none). The
	// reconfiguration service counts completions past it as deadline misses.
	Deadline sim.Duration
}

// Trace is an ordered request sequence.
type Trace []Request

// RoundRobinTrace generates n periodic requests that deliberately thrash
// the RPs with rotating ASPs — the worst case for reconfiguration latency.
func RoundRobinTrace(n int, gap sim.Duration, rps, asps []string) Trace {
	tr := make(Trace, 0, n)
	for i := 0; i < n; i++ {
		tr = append(tr, Request{
			At:  sim.Duration(i+1) * gap,
			RP:  rps[i%len(rps)],
			ASP: asps[i%len(asps)],
		})
	}
	return tr
}

// Validate checks the trace is time-ordered and references known names.
func (tr Trace) Validate(rps, asps []string) error {
	inRP := make(map[string]bool, len(rps))
	for _, r := range rps {
		inRP[r] = true
	}
	inASP := make(map[string]bool, len(asps))
	for _, a := range asps {
		inASP[a] = true
	}
	if !sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].At < tr[j].At }) {
		return fmt.Errorf("workload: trace not time-ordered")
	}
	for i, req := range tr {
		if !inRP[req.RP] {
			return fmt.Errorf("workload: request %d references unknown RP %q", i, req.RP)
		}
		if !inASP[req.ASP] {
			return fmt.Errorf("workload: request %d references unknown ASP %q", i, req.ASP)
		}
	}
	return nil
}
