package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/paperdata"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/srampdr"
	"repro/internal/workload"
)

// TableI (E1): throughput vs frequency when over-clocking.
func TableI(env *Env) (*Report, error) {
	cal := &core.Calibrator{C: env.Controller, Bitstream: env.Bitstream}
	freqs := make([]float64, 0, len(paperdata.TableI))
	for _, row := range paperdata.TableI {
		freqs = append(freqs, row.FreqMHz)
	}
	points, err := cal.Sweep(context.Background(), freqs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "E1",
		Title:  "Table I — throughput vs. frequency when over-clocking",
		Header: []string{"ICAP freq [MHz]", "Config latency [us]", "Throughput [MB/s]", "CRC", "paper latency", "paper MB/s"},
	}
	for i, pt := range points {
		paper := paperdata.TableI[i]
		lat, tput := "N/A no interrupt", "N/A"
		if pt.Result.IRQReceived {
			lat, tput = f2(pt.Result.LatencyUS), f2(pt.Result.ThroughputMBs)
		}
		plat := "N/A no interrupt"
		ptput := "N/A"
		if paper.IRQ {
			plat, ptput = f2(paper.LatencyUS), f2(paper.ThroughputMBs)
		}
		rep.Rows = append(rep.Rows, []string{
			mhz(pt.RequestedMHz), lat, tput, validity(pt.Result.CRCValid), plat, ptput,
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("bitstream size %d bytes (the size Table I's latency×throughput implies)", env.Bitstream.Size()))
	return rep, nil
}

// E2 (Fig. 5), E3 (temperature stress) and E4 (Fig. 6) live in shards.go:
// they are sharded scenarios whose only implementation is the registry
// path, so every consumer — campaign, pdrbench, tests — runs the same
// code through Execute and reports the same numbers.

// TableII (E5): power efficiency at 40 °C.
func TableII(env *Env) (*Report, error) {
	meter := power.NewMeter(env.Platform.Kernel, env.Platform.Power, 100*sim.Microsecond)
	pp := &core.PowerProfiler{C: env.Controller, Meter: meter, Bitstream: env.Bitstream}
	freqs := []float64{100, 140, 180, 200, 240, 280}
	points, err := pp.Grid(context.Background(), freqs, []float64{40})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "E5",
		Title:  "Table II — power efficiency for over-clocking at 40 °C",
		Header: []string{"freq [MHz]", "P_PDR [W]", "throughput [MB/s]", "PpW [MB/J]", "paper PpW"},
	}
	best := 0.0
	bestF := 0.0
	for i, pt := range points {
		// The rendered MB/J comes from the quantized meter reading at the
		// live die temperature; the model-side reciprocal (EnergyPerMB, the
		// consolidated Table II math the planner also uses) must agree with
		// it to within the measurement chain's error, or the two Table II
		// formulations have drifted apart.
		if pt.ThroughputMBs > 0 {
			metered := pt.PDRWatts / pt.ThroughputMBs
			model := env.Platform.Power.EnergyPerMB(pt.FreqMHz, pt.TempC, pt.ThroughputMBs)
			if model <= 0 || math.Abs(metered-model)/model > 0.03 {
				return nil, fmt.Errorf("experiments: Table II drift at %.0f MHz: metered %.4f J/MB vs model %.4f J/MB",
					pt.FreqMHz, metered, model)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			mhz(pt.FreqMHz), f2(pt.PDRWatts), f2(pt.ThroughputMBs), f0(pt.PpW), f0(paperdata.TableII[i].PpWMBperJ),
		})
		if pt.PpW > best {
			best, bestF = pt.PpW, pt.FreqMHz
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("most power-efficient point: %.0f MHz at %.0f MB/J (paper: 200 MHz, ≈599 MB/J)", bestF, best))
	return rep, nil
}

// TableIII (E6): comparison with related work.
func TableIII(env *Env) (*Report, error) {
	rep := &Report{
		ID:     "E6",
		Title:  "Table III — comparison with related work",
		Header: []string{"design", "platform", "ICAP freq [MHz]", "throughput [MB/s]", "CRC", "bitstream limit"},
	}
	for _, ctrl := range baselines.All() {
		size := paperdata.BitstreamBytes
		if m := ctrl.MaxBitstreamBytes(); m != 0 && size > m {
			size = m
		}
		att, err := ctrl.Load(size, ctrl.BestMHz())
		if err != nil {
			return nil, err
		}
		limit := "none"
		if m := ctrl.MaxBitstreamBytes(); m != 0 {
			limit = fmt.Sprintf("%d KB (FIFO)", m/1024)
		}
		crc := "no"
		if ctrl.HasCRC() {
			crc = "yes"
		}
		rep.Rows = append(rep.Rows, []string{
			ctrl.Name(), ctrl.Platform(), mhz(ctrl.BestMHz()), f0(att.ThroughputMBs), crc, limit,
		})
	}
	rep.Notes = append(rep.Notes,
		"HKT-2011's 2200 MB/s holds only for ≤50 KB FIFO-resident bitstreams (the paper's caveat)")
	// Cross-check "this work" against the live DES measurement at 280 MHz.
	if _, err := env.Controller.SetFrequencyMHz(280); err != nil {
		return nil, err
	}
	res, err := env.Controller.Load("RP1", env.Bitstream)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("DES cross-check at 280 MHz: %.0f MB/s (analytic row uses the same model)", res.ThroughputMBs))
	return rep, nil
}

// SecVI (E7): the proposed SRAM-based reconfiguration environment.
func SecVI(env *Env) (*Report, error) {
	p := env.Platform
	sys, err := srampdr.New(srampdr.Config{
		Kernel: p.Kernel,
		Device: p.Device,
		Memory: p.Memory,
		DDR:    dram.NewController(p.Kernel, p.Profile.DRAM),
		TempC:  func() float64 { return p.Die.TempC() },
		Seed:   7,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "E7",
		Title:  "Sec. VI — proposed SRAM-based PDR (theoretical 1237.5 MB/s)",
		Header: []string{"variant", "SRAM bytes", "latency [us]", "effective MB/s", "CRC"},
	}
	for _, variant := range []struct {
		name       string
		compressed bool
	}{
		{"raw", false},
		{"compress", true},
	} {
		bs, err := workload.ASP{Name: "sec6-" + variant.name, FillFraction: 0.55, Seed: 21}.Bitstream(p.Device, p.RPs[1])
		if err != nil {
			return nil, err
		}
		if err := sys.Register(bs, variant.compressed); err != nil {
			return nil, err
		}
		doneLoad := false
		if err := sys.Preload(bs.Header.Name, func(srampdr.Preloaded) { doneLoad = true }); err != nil {
			return nil, err
		}
		for !doneLoad {
			if !p.Kernel.Step() {
				return nil, fmt.Errorf("experiments: preload stalled")
			}
		}
		var res *srampdr.ReconfigResult
		if err := sys.Reconfigure(func(r srampdr.ReconfigResult) { res = &r }); err != nil {
			return nil, err
		}
		for res == nil {
			if !p.Kernel.Step() {
				return nil, fmt.Errorf("experiments: reconfigure stalled")
			}
		}
		rep.Rows = append(rep.Rows, []string{
			variant.name,
			fmt.Sprintf("%d", res.BytesFromSRAM),
			f2(res.LatencyUS),
			f2(res.ThroughputMBs),
			validity(res.CRCValid),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("paper's theoretical rate: %.1f MB/s; measured DMA-path best: 790 MB/s", paperdata.SecVITheoreticalMBs),
		"the decompressor raises the effective rate further because zero runs cost no SRAM bandwidth")
	return rep, nil
}

// LatencyClaims (E8): the abstract's "about 670 µs for bitstreams of 1.2 MB"
// versus what Table I's own numbers imply.
func LatencyClaims(env *Env) (*Report, error) {
	rep := &Report{
		ID:     "E8",
		Title:  "latency-claim consistency check (abstract vs. Table I)",
		Header: []string{"bitstream", "frequency [MHz]", "predicted latency [us]"},
	}
	for _, size := range []int{paperdata.BitstreamBytes, 1200 * 1024} {
		lat := core.ExpectedLatencyUS(size, 200)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d bytes", size), "200", f2(lat),
		})
	}
	rep.Notes = append(rep.Notes,
		"529 KB at 200 MHz gives the ≈676 µs of Table I; a true 1.2 MB image would need ≈1.55 ms",
		"conclusion: the abstract's '1.2 MB' is inconsistent with Table I; the measured bitstream was ≈529 KB")
	return rep, nil
}
