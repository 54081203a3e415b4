package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/hll"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E9 exercises the Fig.-1 acceleration framework the way a deployment
// would: a Poisson request stream over the four RPs and a mix of ASPs,
// served by the on-demand scheduler at the 200 MHz operating point the
// paper recommends. The trace is a pure function of the seed and is cut
// into fixed contiguous segments; each segment replays on a fresh board
// (cold residency), which is exactly what lets a campaign shard it.

const (
	poissonTitle     = "Fig. 1 framework under Poisson load (sharded trace segments)"
	poissonRequests  = 96
	poissonSegments  = 4
	poissonMeanGapUS = 400.0
)

var poissonASPs = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func poissonShards(Config) int { return poissonSegments }

var poissonHeader = []string{"segment", "requests", "hits", "reconfigs", "failures", "reconfig [us]", "makespan [us]", "PDR overhead"}

// The partial report carries the raw segment statistics as a numeric
// series (one point per metric, in this order); merge does ALL the row
// formatting, so totals sum exact values and never re-parse display text.
const (
	pmRequests = iota
	pmHits
	pmReconfigs
	pmFailures
	pmReconfigUS
	pmMakespanUS
	pmCount
)

// poissonTrace is E9's whole request stream, a pure function of the seed.
func poissonTrace(src *Boards) (workload.Trace, error) {
	return workload.ArrivalSpec{RatePerSec: 1e6 / poissonMeanGapUS}.Generate(
		src.Cfg.Seed^0x9E37, poissonRequests, src.Profile.RPNames(), poissonASPs)
}

func poissonShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := poissonTrace(src)
	if err != nil {
		return nil, err
	}
	lo, hi := segBounds(len(tr), poissonSegments, shard)
	seg := make(workload.Trace, hi-lo)
	base := tr[lo].At
	for i, req := range tr[lo:hi] {
		req.At -= base
		seg[i] = req
	}
	env, err := src.Env()
	if err != nil {
		return nil, err
	}
	if _, err := env.Controller.SetFrequencyMHz(200); err != nil {
		return nil, err
	}
	stats, err := hll.New(env.Controller, src.images).Run(seg)
	if err != nil {
		return nil, err
	}
	raw := sim.Series{Name: "e9_raw", XLabel: "metric_index", YLabel: "value"}
	for i, v := range [pmCount]float64{
		pmRequests:   float64(stats.Requests),
		pmHits:       float64(stats.Hits),
		pmReconfigs:  float64(stats.Reconfigs),
		pmFailures:   float64(stats.Failures),
		pmReconfigUS: stats.ReconfigTime.Microseconds(),
		pmMakespanUS: stats.Makespan.Microseconds(),
	} {
		raw.Append(float64(i), v)
	}
	return &Report{ID: "E9", Title: poissonTitle, Series: []sim.Series{raw}}, nil
}

func poissonMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	rep := &Report{ID: "E9", Title: poissonTitle, Header: poissonHeader}
	overheadSeries := sim.Series{Name: "e9_overhead", XLabel: "segment", YLabel: "pdr_overhead_fraction"}
	var total [pmCount]float64
	row := func(label string, m [pmCount]float64) []string {
		overhead := 0.0
		if m[pmMakespanUS] > 0 {
			overhead = m[pmReconfigUS] / m[pmMakespanUS]
		}
		return []string{
			label,
			strconv.Itoa(int(m[pmRequests])),
			strconv.Itoa(int(m[pmHits])),
			strconv.Itoa(int(m[pmReconfigs])),
			strconv.Itoa(int(m[pmFailures])),
			f2(m[pmReconfigUS]),
			f2(m[pmMakespanUS]),
			fmt.Sprintf("%.1f%%", 100*overhead),
		}
	}
	for k, p := range parts {
		var m [pmCount]float64
		for i, pt := range p.Series[0].Points {
			m[i] = pt.Y
			total[i] += pt.Y
		}
		lo, hi := segBounds(poissonRequests, poissonSegments, k)
		rep.Rows = append(rep.Rows, row(fmt.Sprintf("seg %d (req %d–%d)", k+1, lo+1, hi), m))
		if m[pmMakespanUS] > 0 {
			overheadSeries.Append(float64(k+1), m[pmReconfigUS]/m[pmMakespanUS])
		}
	}
	rep.Rows = append(rep.Rows, row("all segments", total))
	rep.Series = append(rep.Series, overheadSeries)
	overhead := 0.0
	if total[pmMakespanUS] > 0 {
		overhead = total[pmReconfigUS] / total[pmMakespanUS]
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d requests over 4 RPs and %d ASPs at 200 MHz; reconfiguration costs %.1f%% of the makespan — the overhead the paper's over-clocking attacks", int(total[pmRequests]), len(poissonASPs), 100*overhead),
		"segments replay on fresh boards (cold ASP residency), so the hit rate is a lower bound on a long-running deployment's")
	return rep, nil
}
