package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sim"
)

// This file holds the sharded scenario implementations: the fine-grained
// sweep (E2), the heat-gun stress matrix (E3) and the power grid (E4) split
// into independent work units — one per frequency segment or temperature —
// each booting its own fresh board. The shard plan is a function of the
// Config only, never of worker count, and the merge functions reassemble
// the shard reports in index order, so a parallel campaign reproduces the
// sequential output byte for byte.

const (
	fig5Title       = "Fig. 5 — throughput vs. frequency"
	stressTitle     = "Sec. IV-A — temperature stress (pass = CRC valid)"
	fig6Title       = "Fig. 6 — P_PDR [W] vs. frequency at die temperatures"
	fig5SegmentGoal = 3
)

// kneeMHz returns the frequency of the first throughput point falling below
// 98% of the stream-side 4·f line (0 when the curve never leaves it) — the
// knee-detection rule shared by E2 and E10.
func kneeMHz(points []sim.Point) float64 {
	for _, pt := range points {
		if pt.Y < 4*pt.X*0.98 {
			return pt.X
		}
	}
	return 0
}

func fig5Grid(cfg Config) []float64 {
	if len(cfg.Freqs) > 0 {
		return cfg.Freqs
	}
	var freqs []float64
	for f := 100.0; f <= 300; f += 10 {
		freqs = append(freqs, f)
	}
	return freqs
}

func stressGrid(cfg Config) (freqs, temps []float64) {
	freqs = []float64{100, 140, 180, 200, 240, 280, 310}
	if len(cfg.Freqs) > 0 {
		freqs = cfg.Freqs
	}
	temps = []float64{40, 50, 60, 70, 80, 90, 100}
	if len(cfg.Temps) > 0 {
		temps = cfg.Temps
	}
	return freqs, temps
}

func fig6Grid(cfg Config) (freqs, temps []float64) {
	freqs = []float64{100, 140, 180, 200, 240, 280}
	if len(cfg.Freqs) > 0 {
		freqs = cfg.Freqs
	}
	temps = []float64{40, 60, 80, 100}
	if len(cfg.Temps) > 0 {
		temps = cfg.Temps
	}
	return freqs, temps
}

// --- E2: Fig. 5 sweep, sharded into contiguous frequency segments ---

func fig5Shards(cfg Config) int {
	return min(fig5SegmentGoal, len(fig5Grid(cfg)))
}

func fig5Shard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	freqs := fig5Grid(src.Cfg)
	lo, hi := segBounds(len(freqs), fig5Shards(src.Cfg), shard)
	env, err := src.Env()
	if err != nil {
		return nil, err
	}
	cal := &core.Calibrator{C: env.Controller, Bitstream: env.Bitstream}
	points, err := cal.Sweep(ctx, freqs[lo:hi])
	if err != nil {
		return nil, err
	}
	series := sim.Series{Name: "fig5", XLabel: "frequency_mhz", YLabel: "throughput_mbs"}
	rep := &Report{ID: "E2", Title: fig5Title, Header: []string{"freq [MHz]", "throughput [MB/s]"}}
	for _, pt := range points {
		if !pt.Result.IRQReceived {
			continue
		}
		series.Append(pt.RequestedMHz, pt.Result.ThroughputMBs)
		rep.Rows = append(rep.Rows, []string{mhz(pt.RequestedMHz), f2(pt.Result.ThroughputMBs)})
	}
	rep.Series = append(rep.Series, series)
	return rep, nil
}

func fig5Merge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E2", fig5Title, []string{"freq [MHz]", "throughput [MB/s]"}, parts)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("curve linear until ≈%.0f MHz, then flattens (paper: ≈200 MHz)", kneeMHz(rep.Series[0].Points)),
		fmt.Sprintf("swept as %d independent frequency segments, each on a fresh board", len(parts)))
	return rep, nil
}

// --- E3: heat-gun stress matrix, sharded one temperature per unit ---

func stressShards(cfg Config) int {
	_, temps := stressGrid(cfg)
	return len(temps)
}

func stressShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	freqs, temps := stressGrid(src.Cfg)
	temp := temps[shard]
	env, err := src.Env()
	if err != nil {
		return nil, err
	}
	cal := &core.Calibrator{C: env.Controller, Bitstream: env.Bitstream}
	cells, err := cal.StressMatrix(ctx, freqs, []float64{temp})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E3", Title: stressTitle, Header: []string{fmt.Sprintf("%.0fC", temp)}}
	for _, cell := range cells {
		mark := "pass"
		if !cell.Passed {
			mark = "FAIL"
		}
		rep.Rows = append(rep.Rows, []string{mark})
	}
	return rep, nil
}

func stressMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	freqs, temps := stressGrid(cfg)
	header := []string{"freq\\temp"}
	for _, t := range temps {
		header = append(header, fmt.Sprintf("%.0fC", t))
	}
	rep := &Report{ID: "E3", Title: stressTitle, Header: header}
	fails := 0
	for i, f := range freqs {
		row := []string{mhz(f) + " MHz"}
		for _, p := range parts {
			mark := p.Rows[i][0]
			if mark == "FAIL" {
				fails++
			}
			row = append(row, mark)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d failing cell(s); paper reports exactly one: 310 MHz @ 100 °C", fails),
		fmt.Sprintf("stressed as %d independent temperature columns, each on a freshly heated board", len(parts)))
	return rep, nil
}

// --- E4: power grid, sharded one temperature per unit ---

func fig6Shards(cfg Config) int {
	_, temps := fig6Grid(cfg)
	return len(temps)
}

func fig6Shard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	freqs, temps := fig6Grid(src.Cfg)
	temp := temps[shard]
	env, err := src.Env()
	if err != nil {
		return nil, err
	}
	meter := power.NewMeter(env.Platform.Kernel, env.Platform.Power, 100*sim.Microsecond)
	pp := &core.PowerProfiler{C: env.Controller, Meter: meter, Bitstream: env.Bitstream}
	points, err := pp.Grid(ctx, freqs, []float64{temp})
	if err != nil {
		return nil, err
	}
	// The partial report carries the measured column as a numeric series;
	// the merge rebuilds the formatted grid from it.
	s := sim.Series{Name: fmt.Sprintf("fig6_%.0fC", temp), XLabel: "frequency_mhz", YLabel: "pdr_watts"}
	for _, pt := range points {
		s.Append(pt.FreqMHz, pt.PDRWatts)
	}
	return &Report{ID: "E4", Title: fig6Title, Series: []sim.Series{s}}, nil
}

func fig6Merge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	freqs, temps := fig6Grid(cfg)
	header := []string{"freq [MHz]"}
	for _, t := range temps {
		header = append(header, fmt.Sprintf("%.0fC", t))
	}
	rep := &Report{ID: "E4", Title: fig6Title, Header: header}
	for _, p := range parts {
		rep.Series = append(rep.Series, p.Series[0])
	}
	for fi, f := range freqs {
		row := []string{mhz(f)}
		for _, p := range parts {
			row = append(row, f2(p.Series[0].Points[fi].Y))
		}
		rep.Rows = append(rep.Rows, row)
	}
	if len(freqs) > 1 {
		slope := func(p *Report) float64 {
			pts := p.Series[0].Points
			first, last := pts[0], pts[len(pts)-1]
			return (last.Y - first.Y) / (last.X - first.X)
		}
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("dynamic slope %.4f W/MHz at %.0fC vs %.4f at %.0fC (paper: temperature-independent)",
				slope(parts[0]), temps[0], slope(parts[len(parts)-1]), temps[len(temps)-1]))
	}
	rep.Notes = append(rep.Notes,
		"static power grows super-linearly with temperature (paper's Fig. 6 observation)",
		fmt.Sprintf("profiled as %d independent temperature columns, each on a freshly heated board", len(parts)))
	return rep, nil
}
