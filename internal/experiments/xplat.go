package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// E10 (xplat) re-runs the Table I sweep on every registered platform board
// (distinct silicon; presets of the same board are skipped) and decomposes
// each platform's stream/memory knee: where the measured curve leaves the
// 4·f line versus where the memory-side model (HP-port rate, DDR refresh,
// CDC handshake) predicts it. One shard per platform, each on its own
// freshly booted board of that profile — the campaign machinery parallelises
// and merges it like any other scenario.

const xplatTitle = "cross-platform Table I sweep and knee decomposition"

func xplatShards(Config) int { return len(platform.Boards()) }

// xplatGrid is the sweep grid for a platform: the campaign's frequency
// override when given, otherwise the board's own switch table (its
// Table-I-equivalent operational grid).
func xplatGrid(cfg Config, prof *platform.Profile) []float64 {
	if len(cfg.Freqs) > 0 {
		return cfg.Freqs
	}
	return prof.IO.SwitchTableMHz
}

func xplatShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	prof := platform.Boards()[shard]
	env, err := src.EnvFor(prof.Name)
	if err != nil {
		return nil, err
	}
	cal := &core.Calibrator{C: env.Controller, Bitstream: env.Bitstream}
	freqs := xplatGrid(src.Cfg, prof)
	points, err := cal.SweepContext(ctx, freqs)
	if err != nil {
		return nil, err
	}

	series := sim.Series{Name: "xplat_" + prof.Name, XLabel: "frequency_mhz", YLabel: "throughput_mbs"}
	rep := &Report{ID: "E10", Title: xplatTitle}
	for _, pt := range points {
		lat, tput := "N/A no interrupt", "N/A"
		if pt.Result.IRQReceived {
			lat = f2(pt.Result.LatencyUS)
			tput = f2(pt.Result.ThroughputMBs)
			series.Append(pt.RequestedMHz, pt.Result.ThroughputMBs)
		}
		rep.Rows = append(rep.Rows, []string{
			prof.Name, mhz(pt.RequestedMHz), lat, tput,
			validity(pt.Result.CRCValid), pt.Result.Outcome.String(),
		})
	}
	measuredKnee := kneeMHz(series.Points)
	rep.Series = append(rep.Series, series)

	// Knee decomposition from the memory-side model alone: the refresh-
	// derated port slot plus the CDC tax predict both the plateau and the
	// knee; the note records how far the measured sweep agrees.
	top := freqs[len(freqs)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%s (%s, %d-frame RPs, %d B image): measured knee ≈%.0f MHz; memory model predicts knee %.1f MHz, plateau %.1f MB/s at %.0f MHz",
		prof.Name, prof.Part, env.Bitstream.Header.Frames, env.Bitstream.Size(),
		measuredKnee, prof.StreamKneeMHz(), prof.MemoryPlateauMBs(top), top))
	return rep, nil
}

func xplatMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E10", xplatTitle,
		[]string{"platform", "freq [MHz]", "latency [us]", "throughput [MB/s]", "CRC", "outcome"}, parts)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d platforms swept, one fresh board per platform; the 200 MHz ZedBoard knee is a property of its memory path, and moves with it",
		len(parts)))
	return rep, nil
}
