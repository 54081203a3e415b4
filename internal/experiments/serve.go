package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/hll"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds the reconfiguration-service scenarios built on the
// hll.Service engine:
//
//   - E11 "saturate": an open-loop latency-vs-offered-load sweep per
//     platform board, run twice per rate — with the profile-budget DRAM
//     bitstream cache and with the cache disabled (every reconfiguration
//     re-stages its image from the SD-card backing store). The merge
//     detects each configuration's saturation knee (where the p99 sojourn
//     diverges) and reports how far the cache moves it.
//   - E12 "sched": dispatch policy × cache budget at a fixed offered load
//     on the campaign platform, under a bursty multi-tenant stream.
//
// Both scenarios shard like every other: E11 one shard per (platform,
// rate segment), E12 one shard per policy; each measurement point boots
// its own fresh board, so shards are pure functions of the campaign
// configuration.

const (
	satTitle   = "saturation: p99 latency vs offered load, cache vs no-cache (per platform)"
	schedTitle = "scheduling: dispatch policy × bitstream-cache budget at fixed load"

	// satRequests is the stream length per measurement point; satSegRates
	// is the number of rate points one shard covers.
	satRequests = 96
	satSegRates = 2

	// Service parameters shared by both scenarios: the 200 MHz operating
	// point the paper recommends, a 32-deep per-RP admission queue and a
	// 20 ms deadline (a generous interactive budget).
	serveFreqMHz  = 200
	serveQueueCap = 32
	serveDeadline = 20 * sim.Millisecond

	// E12's fixed offered load and burst shape.
	schedRatePerSec  = 150
	schedBurstFactor = 4
	schedBurstLen    = 8
)

// satASPs is the served accelerator mix (the E9 mix, so the working set is
// ASPs × RPs images).
var satASPs = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

var schedTenants = []string{"alpha", "beta", "gamma"}

// satRateGrid is the offered-load axis: log-spaced so it brackets both the
// no-cache knee (tens of req/s — SD staging dominates) and the cached knee
// (hundreds — the ICAP transfer plus accelerator memory contention
// dominate).
func satRateGrid(cfg Config) []float64 {
	if len(cfg.Rates) > 0 {
		return cfg.Rates
	}
	return []float64{25, 50, 100, 400, 800, 1600}
}

func satSegments(cfg Config) int {
	return (len(satRateGrid(cfg)) + satSegRates - 1) / satSegRates
}

func satShards(cfg Config) int { return len(platform.Boards()) * satSegments(cfg) }

func boardNames(Config) []string {
	boards := platform.Boards()
	names := make([]string, len(boards))
	for i, b := range boards {
		names[i] = b.Name
	}
	return names
}

// satSeed derives the arrival-stream seed for one rate point. Both cache
// modes replay the same stream, so their latencies are comparable.
func satSeed(cfg Config, rateIdx int) uint64 {
	return cfg.Seed ^ 0x53A7 ^ (uint64(rateIdx+1) * 0x9E3779B97F4A7C15)
}

var satHeader = []string{
	"platform", "rate [req/s]", "cache", "offered", "completed", "shed",
	"hit rate", "p50 [ms]", "p95 [ms]", "p99 [ms]", "deadline misses",
}

// servePoint runs one open-loop measurement on a fresh board of the named
// platform.
func servePoint(src *Boards, board string, tr workload.Trace, scfg hll.ServiceConfig) (hll.ServiceStats, error) {
	env, err := src.EnvFor(board)
	if err != nil {
		return hll.ServiceStats{}, err
	}
	if _, err := env.Controller.SetFrequencyMHz(serveFreqMHz); err != nil {
		return hll.ServiceStats{}, err
	}
	scfg.Images = src.images
	svc, err := hll.NewService(env.Controller, scfg)
	if err != nil {
		return hll.ServiceStats{}, err
	}
	return svc.Serve(tr)
}

func ms(us float64) string { return fmt.Sprintf("%.2f", us/1000) }

func hitRate(s hll.ServiceStats) string {
	if s.Requests == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(s.Hits)/float64(s.Requests))
}

func satShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	cfg := src.Cfg
	segs := satSegments(cfg)
	if shard < 0 || shard >= satShards(cfg) {
		return nil, fmt.Errorf("experiments: saturate shard %d out of range", shard)
	}
	// Shards are platform-major, so a board's rate segments are contiguous
	// and the merged rows group per platform.
	prof := platform.Boards()[shard/segs]
	rates := satRateGrid(cfg)
	lo := (shard % segs) * satSegRates
	hi := min(lo+satSegRates, len(rates))

	rep := &Report{ID: "E11", Title: satTitle}
	cacheSeries := sim.Series{Name: "e11_" + prof.Name + "_cache", XLabel: "offered_req_per_s", YLabel: "p99_sojourn_us"}
	noneSeries := sim.Series{Name: "e11_" + prof.Name + "_nocache", XLabel: "offered_req_per_s", YLabel: "p99_sojourn_us"}
	for ri := lo; ri < hi; ri++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rate := rates[ri]
		spec := workload.ArrivalSpec{RatePerSec: rate, Deadline: serveDeadline}
		tr, err := spec.Generate(satSeed(cfg, ri), satRequests, prof.RPNames(), satASPs)
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			label  string
			budget int64
		}{
			{"cache", 0}, // the profile's derived budget
			{"none", -1},
		} {
			stats, err := servePoint(src, prof.Name, tr, hll.ServiceConfig{
				CacheBudgetBytes: mode.budget,
				QueueCap:         serveQueueCap,
				// Steady-state residency: the cache run measures a warm
				// deployment; the no-cache ablation ignores the prewarm and
				// re-stages on every reconfiguration.
				Prewarm: satASPs,
			})
			if err != nil {
				return nil, err
			}
			p99 := stats.SojournUS.Quantile(0.99)
			rep.Rows = append(rep.Rows, []string{
				prof.Name, f0(rate), mode.label,
				strconv.Itoa(stats.Offered), strconv.Itoa(stats.Completed), strconv.Itoa(stats.Shed),
				hitRate(stats),
				ms(stats.SojournUS.Quantile(0.50)), ms(stats.SojournUS.Quantile(0.95)), ms(p99),
				strconv.Itoa(stats.DeadlineMisses),
			})
			if mode.label == "cache" {
				cacheSeries.Append(rate, p99)
			} else {
				noneSeries.Append(rate, p99)
			}
		}
	}
	rep.Series = append(rep.Series, cacheSeries, noneSeries)
	return rep, nil
}

// SaturationKnee finds where a latency-vs-load curve diverges: the last
// offered rate whose p99 stays within 5× the lowest-rate p99. It reports
// diverged=false when the curve never leaves that band (the knee is beyond
// the swept grid).
func SaturationKnee(points []sim.Point) (knee float64, diverged bool) {
	if len(points) == 0 {
		return 0, false
	}
	base := points[0].Y
	knee = points[0].X
	for _, pt := range points[1:] {
		if base > 0 && pt.Y > 5*base {
			return knee, true
		}
		knee = pt.X
	}
	return knee, false
}

func satMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	// Shards are platform-major with ascending rate segments, so the
	// stitched curve per (platform, mode) stays sorted by rate.
	rep := concat("E11", satTitle, satHeader, parts)
	// Knee decomposition per platform: where each mode's p99 diverges, and
	// how far the DRAM bitstream cache moves the knee.
	for _, prof := range platform.Boards() {
		withCache := rep.points("e11_" + prof.Name + "_cache")
		withoutCache := rep.points("e11_" + prof.Name + "_nocache")
		if len(withCache) == 0 || len(withoutCache) == 0 {
			continue
		}
		kneeC, divC := SaturationKnee(withCache)
		kneeN, divN := SaturationKnee(withoutCache)
		geC, geN := "", ""
		if !divC {
			geC = "≥"
		}
		if !divN {
			geN = "≥"
		}
		// The shift is exact only when both knees diverged inside the grid;
		// a grid-truncated cached knee makes it a lower bound, and an
		// un-diverged no-cache knee makes it indeterminate.
		shift := "—"
		switch {
		case kneeN <= 0 || !divN:
		case divC:
			shift = fmt.Sprintf("%.0f×", kneeC/kneeN)
		default:
			shift = fmt.Sprintf("≥%.0f×", kneeC/kneeN)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: saturation knee %s%.0f req/s with the DRAM bitstream cache vs %s%.0f req/s without (SD re-staging) — the cache shifts the knee %s",
			prof.Name, geC, kneeC, geN, kneeN, shift))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"open-loop Poisson arrivals over %d-request streams at 200 MHz; per-RP queues cap at %d (excess load is shed), deadlines at %v",
		satRequests, serveQueueCap, serveDeadline))
	return rep, nil
}

// --- E12: policy × cache budget ---

var schedHeader = []string{
	"policy", "cache budget", "offered", "completed", "shed", "hit rate",
	"cache hits", "evictions", "stage [ms]", "p50 [ms]", "p95 [ms]", "p99 [ms]", "deadline misses",
}

func schedShards(Config) int { return len(sched.PolicyNames()) }

func schedShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	names := sched.PolicyNames()
	if shard < 0 || shard >= len(names) {
		return nil, fmt.Errorf("experiments: sched shard %d out of range", shard)
	}
	policy, prof := names[shard], src.Profile
	spec := workload.ArrivalSpec{
		RatePerSec:  schedRatePerSec,
		BurstFactor: schedBurstFactor,
		BurstLen:    schedBurstLen,
		Tenants:     schedTenants,
		Deadline:    serveDeadline,
	}
	tr, err := spec.Generate(src.Cfg.Seed^0x5C4ED, satRequests, prof.RPNames(), satASPs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "E12", Title: schedTitle}
	series := sim.Series{Name: "e12_" + policy, XLabel: "budget_index", YLabel: "p99_sojourn_us"}
	// The cache-budget axis: a thrashing 4-image cache, a 12-image cache
	// just under the 16-image working set, and the platform profile's
	// derived budget (which holds it all).
	for bi, budget := range []struct {
		label  string
		images int
	}{
		{"4 images", 4},
		{"12 images", 12},
		{"profile", 0},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats, err := servePoint(src, src.Cfg.Platform, tr, hll.ServiceConfig{
			Policy:            policy,
			CacheBudgetImages: budget.images,
			QueueCap:          serveQueueCap,
			Prewarm:           satASPs,
		})
		if err != nil {
			return nil, err
		}
		p99 := stats.SojournUS.Quantile(0.99)
		rep.Rows = append(rep.Rows, []string{
			policy, budget.label,
			strconv.Itoa(stats.Offered), strconv.Itoa(stats.Completed), strconv.Itoa(stats.Shed),
			hitRate(stats),
			strconv.Itoa(stats.Cache.Hits), strconv.Itoa(stats.Cache.Evictions),
			ms(stats.StageTime.Microseconds()),
			ms(stats.SojournUS.Quantile(0.50)), ms(stats.SojournUS.Quantile(0.95)), ms(p99),
			strconv.Itoa(stats.DeadlineMisses),
		})
		series.Append(float64(bi), p99)
	}
	rep.Series = append(rep.Series, series)
	return rep, nil
}

func schedMerge(cfg Config, prof *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E12", schedTitle, schedHeader, parts)
	// Headline: policies matter most when the cache thrashes — compare p99
	// at the smallest budget, and note the convergence at the profile one.
	// Exact ties are reported jointly: on a fabric with uniform RP cuts
	// (every registered board) sbf's cost order collapses to affinity's, so
	// the two produce identical schedules by construction.
	type score struct {
		name string
		p99  float64
	}
	var scores []score
	worstP99 := 0.0
	for _, s := range rep.Series {
		if len(s.Points) == 0 {
			continue
		}
		p99 := s.Points[0].Y // first budget = thrashing 4-image cache
		scores = append(scores, score{name: s.Name[len("e12_"):], p99: p99})
		if p99 > worstP99 {
			worstP99 = p99
		}
	}
	if len(scores) > 0 {
		best := scores[0]
		for _, sc := range scores[1:] {
			if sc.p99 < best.p99 {
				best = sc
			}
		}
		winners := ""
		for _, sc := range scores {
			if sc.p99 == best.p99 {
				if winners != "" {
					winners += "/"
				}
				winners += sc.name
			}
		}
		if best.p99 > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"under the thrashing 4-image budget the best policy (%s) cuts p99 %.1f× vs the worst — dispatch order decides how often the ICAP reconfigures; once the profile budget holds the working set the policies converge (sbf ≡ affinity here: uniform RP cuts make every image the same size)",
				winners, worstP99/best.p99))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"bursty multi-tenant stream (%d req at %d req/s mean, %dx bursts of %d) on %s; the 4-image budget thrashes against a %d-image working set, re-staging from SD on most swaps",
		satRequests, schedRatePerSec, schedBurstFactor, schedBurstLen, prof.Name,
		len(satASPs)*len(prof.RPNames())))
	return rep, nil
}
