package experiments

import (
	"context"
	"fmt"

	"repro/internal/dram"
	"repro/internal/scrub"
	"repro/internal/sim"
)

// AblationContention (A4): Fig. 1 gives every RP a private data DMA on the
// shared memory interface, so a computing accelerator steals HP-port slots
// from the configuration path. This ablation measures reconfiguration
// throughput at 280 MHz (memory-bound, worst case) under increasing
// background traffic.
func AblationContention(_ context.Context, env *Env) (*Report, error) {
	c := env.Controller
	p := env.Platform
	if _, err := c.SetFrequencyMHz(280); err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "A4",
		Title:  "reconfiguration under accelerator memory traffic (280 MHz)",
		Header: []string{"background traffic [MB/s]", "reconfig throughput [MB/s]", "slowdown"},
	}
	base := 0.0
	for _, rate := range []float64{0, 100, 200, 400} {
		gen := dram.NewTraffic(p.Kernel, p.DDR, rate)
		if rate > 0 {
			gen.Start()
		}
		res, err := c.Load("RP1", env.Bitstream)
		if err != nil {
			return nil, err
		}
		gen.Stop()
		if rate == 0 {
			base = res.ThroughputMBs
		}
		rep.Rows = append(rep.Rows, []string{
			f0(rate), f2(res.ThroughputMBs), fmt.Sprintf("%.2fx", base/res.ThroughputMBs),
		})
	}
	rep.Notes = append(rep.Notes,
		"the shared Memory-Port → Interconnect → DMA path is the same bottleneck Sec. VI's SRAM design removes",
		"the Sec.-VI system is immune: its bitstreams stream from the dedicated SRAM, not the DDR")
	return rep, nil
}

// AblationScrub (A5): the run-time payoff of the CRC read-back block —
// repairing injected single-event upsets in place versus reloading the
// whole partial bitstream.
func AblationScrub(_ context.Context, env *Env) (*Report, error) {
	c := env.Controller
	p := env.Platform
	if _, err := c.SetFrequencyMHz(200); err != nil {
		return nil, err
	}
	// Configure the region first so there is a golden image to defend.
	res, err := c.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	if !res.CRCValid {
		return nil, fmt.Errorf("experiments: initial load failed")
	}
	rp, err := p.RP("RP1")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "A5",
		Title:  "SEU scrubbing vs full reload (200 MHz)",
		Header: []string{"recovery strategy", "upsets", "frames rewritten", "time [us]", "clean"},
	}
	scrubber := scrub.New(p.Kernel, p.ICAP)
	for _, upsets := range []int{1, 8, 64} {
		inj := scrub.NewInjector(p.Memory, uint64(upsets))
		if _, err := inj.UpsetRegion(rp, upsets); err != nil {
			return nil, err
		}
		var got *scrub.Report
		if err := scrubber.Scrub(rp, env.Bitstream.Frames, func(r scrub.Report, serr error) {
			if serr == nil {
				got = &r
			}
		}); err != nil {
			return nil, err
		}
		deadline := p.Kernel.Now().Add(100 * sim.Millisecond)
		for got == nil && p.Kernel.Now() < deadline {
			if !p.Kernel.Step() {
				break
			}
		}
		if got == nil {
			return nil, fmt.Errorf("experiments: scrub stalled")
		}
		rep.Rows = append(rep.Rows, []string{
			"scrub", fmt.Sprintf("%d", upsets), fmt.Sprintf("%d", got.FramesRepaired),
			f2(got.Duration.Microseconds()), fmt.Sprintf("%v", got.Clean),
		})
	}
	// The alternative: a full partial reconfiguration.
	res, err = c.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{
		"full reload", "any", fmt.Sprintf("%d", p.Device.RegionFrames(rp)),
		f2(res.LatencyUS), fmt.Sprintf("%v", res.CRCValid),
	})
	rep.Notes = append(rep.Notes,
		"a scrub pass costs two read-back sweeps plus only the damaged frames' rewrites",
		"latency is comparable to a reload, but the scrub runs autonomously in the PL: no PS software, no DMA programming, and no DDR bandwidth stolen from running accelerators",
		"the paper's CRC block provides the detection half; the scrubber completes the loop")
	return rep, nil
}
