package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

// AblationCRC (A1): what does continuous CRC read-back cost the foreground
// transfer? The monitor shares the single ICAP port, so scans that overlap
// a load would steal word slots; the PR controller avoids that by
// suspending read-back during loads. This ablation measures a load with the
// monitor idle versus a load issued while a scan is in flight (the chunk in
// flight must drain first).
func AblationCRC(env *Env) (*Report, error) {
	c := env.Controller
	if _, err := c.SetFrequencyMHz(200); err != nil {
		return nil, err
	}
	// Baseline: monitor idle.
	res1, err := c.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	// With background scanning active at load issue.
	mon := env.Platform.Monitors["RP1"]
	mon.SetGolden(env.Bitstream.Frames)
	mon.Start()
	env.Platform.Kernel.RunFor(50 * sim.Microsecond) // a scan chunk is in flight
	res2, err := c.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	mon.Stop()
	rep := &Report{
		ID:     "A1",
		Title:  "CRC read-back overhead on the foreground transfer",
		Header: []string{"condition", "latency [us]", "throughput [MB/s]"},
		Rows: [][]string{
			{"monitor idle", f2(res1.LatencyUS), f2(res1.ThroughputMBs)},
			{"scan in flight at issue", f2(res2.LatencyUS), f2(res2.ThroughputMBs)},
		},
	}
	delta := res2.LatencyUS - res1.LatencyUS
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("suspending read-back bounds the interference to one chunk: +%.2f µs", delta))
	return rep, nil
}

// AblationKnee (A2): decompose the ≈790 MB/s plateau into its three causes —
// port slot rate, DDR refresh, CDC handshake — by re-running the 280 MHz
// point with each mechanism idealised, each on its own board of the
// campaign platform.
func AblationKnee(ctx context.Context, src *Boards, _ int) (*Report, error) {
	rep := &Report{
		ID:     "A2",
		Title:  "what limits the plateau at 280 MHz",
		Header: []string{"memory-path variant", "throughput [MB/s]"},
	}
	type variant struct {
		name   string
		params dram.Params
	}
	base := src.Profile.DRAM
	noRefresh := base
	noRefresh.RefreshInterval = 0
	fastPort := base
	// An idealised ~2x counterfactual port (an ablation input, not a device
	// calibration): fast enough that every modelled platform's 280 MHz point
	// becomes ICAP-bound. The figure is part of the locked A2 rows.
	fastPort.PortBytesPerSec = 1600e6
	variants := []variant{
		{"calibrated (paper's system)", base},
		{"no DDR refresh", noRefresh},
		{"2x port rate", fastPort},
	}
	for _, v := range variants {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		params := v.params
		p, err := src.boot(zynq.Options{Seed: 42, Profile: src.Profile, DRAMParams: &params})
		if err != nil {
			return nil, err
		}
		p.ConfigureStatic()
		c := core.New(p)
		if _, err := c.SetFrequencyMHz(280); err != nil {
			return nil, err
		}
		bs, err := workload.ASP{Name: "knee", FillFraction: 0.55, Seed: 3}.Bitstream(p.Device, p.RPs[0])
		if err != nil {
			return nil, err
		}
		res, err := c.Load("RP1", bs)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{v.name, f2(res.ThroughputMBs)})
	}
	rep.Notes = append(rep.Notes,
		"with a 2x port the 280 MHz point becomes ICAP-bound (≈4f), showing the knee is a memory-path artefact")
	return rep, nil
}

// AblationRobustGuard (A3): the cost of an over-clock failure episode with
// recovery, versus a clean load — the operational value of CRC detection.
func AblationRobustGuard(env *Env) (*Report, error) {
	c := env.Controller
	if _, err := c.SetFrequencyMHz(200); err != nil {
		return nil, err
	}
	clean, err := c.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	if _, err := c.SetFrequencyMHz(310); err != nil {
		return nil, err
	}
	guard := &core.RobustGuard{C: c}
	rec, err := guard.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "A3",
		Title:  "RobustGuard recovery cost after an over-clock failure",
		Header: []string{"episode", "attempts", "wall time [us]", "recovered"},
		Rows: [][]string{
			{"clean load @200 MHz", "1", f2(clean.LatencyUS), "n/a"},
			{"hang @310 MHz + fallback", fmt.Sprintf("%d", len(rec.Attempts)), f2(rec.TotalUS), fmt.Sprintf("%v", rec.Recovered)},
		},
	}
	rep.Notes = append(rep.Notes,
		"the recovery episode is dominated by the hang-detection timeout plus a nominal-rate reload",
		"without the CRC monitor (VF-2012) the failure would be silent — there would be nothing to recover from")
	return rep, nil
}
