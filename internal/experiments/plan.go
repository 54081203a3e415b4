package experiments

import (
	"context"
	"fmt"

	"repro/internal/paperdata"
	"repro/internal/plan"
	"repro/internal/sim"
)

// E17 "plan": the power-aware capacity planner. One shard: the search
// engine itself already fans its verifying simulations out over the
// Config.Workers budget (tier B), and the tier-A surrogate scores the whole
// candidate space in milliseconds, so there is nothing left to shard.
//
// The scenario answers ROADMAP item 2's question at the standard offered
// load: meet the SLO at minimum watts, choosing between more boards at
// stock clocks and fewer over-clocked ones — then charts that frontier
// across offered load, including the Sec.-VI SRAM-PDR what-if.

const (
	planTitle = "plan: SLO at minimum watts — two-tier search (surrogate + memoized simulation)"

	// planRatePerSec sits far enough above one board's cached knee that the
	// stock-clock and over-clocked plans need different board counts — the
	// regime where the frequency knob actually trades watts for capacity.
	planRatePerSec = 2200
	planP99        = 12 * sim.Millisecond
	planShed       = 0.01
)

// planRateSweep is the offered-load axis of the frontier chart.
var planRateSweep = []float64{400, 800, 1200, 1600, 2000, 2400, 2800, 3200}

func planRate(cfg Config) float64 {
	if cfg.PlanRate > 0 {
		return cfg.PlanRate
	}
	return planRatePerSec
}

func planSLO(cfg Config) plan.SLO {
	slo := plan.SLO{P99: planP99, MaxShed: planShed}
	if cfg.PlanP99MS > 0 {
		slo.P99 = sim.Duration(cfg.PlanP99MS * float64(sim.Millisecond))
	}
	if cfg.PlanShed > 0 {
		slo.MaxShed = cfg.PlanShed
	}
	return slo
}

// planWorkload is the stream the planner plans for: the standard serve-mix
// at the configured offered load.
func planWorkload(cfg Config) plan.Workload {
	return plan.Workload{
		Seed:       cfg.Seed ^ 0xE17,
		RatePerSec: planRate(cfg),
		Requests:   fleetRequests,
		ASPs:       satASPs,
		Deadline:   serveDeadline,
	}
}

var planHeader = []string{
	"role", "configuration", "watts [W]", "pred p99 [ms]", "pred shed",
	"sim p99 [ms]", "sim shed", "SLO",
}

func planRow(role string, v *plan.Verified) []string {
	pass := "pass"
	if !v.Pass {
		pass = "fail"
	}
	return []string{
		role, v.Candidate.Label(),
		f2(v.Pred.Watts), f2(v.Pred.P99US / 1000), fmt.Sprintf("%.1f%%", 100*v.Pred.Shed),
		f2(v.SimP99US / 1000), fmt.Sprintf("%.1f%%", 100*v.SimShed),
		pass,
	}
}

// planSweepMin scores every candidate at one offered rate and returns the
// cheapest feasible configuration under the keep filter (nil when none is).
func planSweepMin(sur *plan.Surrogate, cands []plan.Candidate, w plan.Workload, slo plan.SLO,
	wi plan.WhatIf, keep func(plan.Candidate) bool) (*plan.Scored, error) {
	var best *plan.Scored
	for _, c := range cands {
		if !keep(c) {
			continue
		}
		pred, err := sur.ScoreWhatIf(c, w, slo, wi)
		if err != nil {
			return nil, err
		}
		if !pred.Feasible {
			continue
		}
		if best == nil || pred.Watts < best.Pred.Watts {
			best = &plan.Scored{Candidate: c, Pred: pred}
		}
	}
	return best, nil
}

func planShard(ctx context.Context, src *Boards, _ int) (*Report, error) {
	cfg := src.Cfg
	w := planWorkload(cfg)
	slo := planSLO(cfg)
	res, err := plan.Search(ctx, plan.Options{
		Workload: w,
		SLO:      slo,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "E17", Title: planTitle, Header: planHeader}
	for _, v := range res.Verified {
		if !v.Memoized && v.Stats != nil {
			rep.SimEvents += v.Stats.KernelEvents
		}
	}
	role := func(v *plan.Verified) string {
		tags := ""
		add := func(match *plan.Verified, tag string) {
			if match != nil && match.Candidate.Label() == v.Candidate.Label() {
				if tags != "" {
					tags += ","
				}
				tags += tag
			}
		}
		add(res.Chosen, "chosen")
		add(res.StockBest, "stock")
		add(res.OverBest, "over-clocked")
		if tags == "" {
			tags = "frontier probe"
		}
		return tags
	}
	for i := range res.Verified {
		v := &res.Verified[i]
		rep.Rows = append(rep.Rows, planRow(role(v), v))
	}

	// The predicted Pareto frontier, in ascending watts.
	frontier := sim.Series{Name: "e17_frontier", XLabel: "watts", YLabel: "pred_p99_us"}
	for _, s := range res.Frontier {
		frontier.Append(s.Pred.Watts, s.Pred.P99US)
	}
	rep.Series = append(rep.Series, frontier)

	// The stock-vs-over-clock frontier chart across offered load, plus the
	// Sec.-VI SRAM-PDR what-if (images resident in QDR SRAM: no SD staging,
	// the theoretical 1237.5 MB/s transfer, stock clocks).
	sur := plan.NewSurrogate()
	cands := plan.Space{}.Enumerate()
	loFreq := cands[0].FreqMHz
	for _, c := range cands[1:] {
		if c.FreqMHz < loFreq {
			loFreq = c.FreqMHz
		}
	}
	stockW := sim.Series{Name: "e17_stock_watts", XLabel: "offered_req_per_s", YLabel: "min_watts"}
	ocW := sim.Series{Name: "e17_overclock_watts", XLabel: "offered_req_per_s", YLabel: "min_watts"}
	sramW := sim.Series{Name: "e17_srampdr_watts", XLabel: "offered_req_per_s", YLabel: "min_watts"}
	sramWhatIf := plan.WhatIf{XferMBs: paperdata.SecVITheoreticalMBs, NoStage: true}
	crossover := 0.0
	var sramAtPlan *plan.Scored
	for _, rate := range planRateSweep {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wr := w
		wr.RatePerSec = rate
		stock, err := planSweepMin(sur, cands, wr, slo, plan.WhatIf{},
			func(c plan.Candidate) bool { return c.FreqMHz == loFreq })
		if err != nil {
			return nil, err
		}
		oc, err := planSweepMin(sur, cands, wr, slo, plan.WhatIf{},
			func(c plan.Candidate) bool { return c.FreqMHz > loFreq })
		if err != nil {
			return nil, err
		}
		sram, err := planSweepMin(sur, cands, wr, slo, sramWhatIf,
			func(c plan.Candidate) bool { return c.FreqMHz == loFreq })
		if err != nil {
			return nil, err
		}
		if stock != nil {
			stockW.Append(rate, stock.Pred.Watts)
		}
		if oc != nil {
			ocW.Append(rate, oc.Pred.Watts)
			if crossover == 0 && stock != nil && oc.Pred.Watts < stock.Pred.Watts {
				crossover = rate
			}
		}
		if sram != nil {
			sramW.Append(rate, sram.Pred.Watts)
		}
	}
	wPlan := w
	sramAtPlan, err = planSweepMin(sur, cands, wPlan, slo, sramWhatIf,
		func(c plan.Candidate) bool { return c.FreqMHz == loFreq })
	if err != nil {
		return nil, err
	}
	rep.Series = append(rep.Series, stockW, ocW, sramW)

	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"tier A scored %d candidates in closed form (Pareto frontier: %d); tier B verified %d of them with full fleet simulations (%d of %d budget, %d memo hits)",
		res.CandidatesScored, len(res.Frontier), len(res.Verified), res.SimsRun, plan.DefaultMaxSims, res.MemoHits))
	if res.Chosen != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"chosen: %s at %.2f W meets the SLO (p99 ≤ %v, shed ≤ %.0f%%) at %.0f req/s — sim p99 %.2f ms, shed %.1f%%",
			res.Chosen.Candidate.Label(), res.Chosen.Pred.Watts, slo.P99, 100*slo.MaxShed,
			w.RatePerSec, res.Chosen.SimP99US/1000, 100*res.Chosen.SimShed))
	} else {
		rep.Notes = append(rep.Notes, "no candidate met the SLO within the simulation budget")
	}
	if res.Chosen != nil && res.StockBest != nil && res.OverBest != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"single-knob baselines: all-stock-clock %s at %.2f W (+%.0f%%), all-over-clocked %s at %.2f W (+%.0f%%)",
			res.StockBest.Candidate.Label(), res.StockBest.Pred.Watts,
			100*(res.StockBest.Pred.Watts/res.Chosen.Pred.Watts-1),
			res.OverBest.Candidate.Label(), res.OverBest.Pred.Watts,
			100*(res.OverBest.Pred.Watts/res.Chosen.Pred.Watts-1)))
	}
	if crossover > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"frontier crossover: below %.0f req/s more boards at stock clocks are cheaper; above it fewer over-clocked boards win (see e17_stock_watts vs e17_overclock_watts)",
			crossover))
	}
	if sramAtPlan != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"SRAM-PDR what-if (Sec. VI: %.1f MB/s, no SD staging): %s at %.2f W would carry %.0f req/s at stock clocks — memory-resident reconfiguration shifts the whole frontier down",
			paperdata.SecVITheoreticalMBs, sramAtPlan.Candidate.Label(), sramAtPlan.Pred.Watts, w.RatePerSec))
	}
	rep.Notes = append(rep.Notes,
		"the search is a pure function of (seed, workload, SLO): the -parallel worker budget and the memo cache change wall clock, never bytes")
	return rep, nil
}
