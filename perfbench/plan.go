package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The plan workload: the planner's default question — 3072 candidates,
// 2200 req/s, a 12 ms p99 / 1 % shed SLO — with the stream seeded from the
// argument. One operation is one plan.Search with a cold memo and tier B
// run sequentially.

// The planner's default question (the E17 scenario's), stated explicitly
// so the benchmark's own surrogate calls score exactly what Search does.
const (
	planRate     = 2200.0
	planRequests = 192
	planDeadline = 20 * sim.Millisecond
)

var planSLO = plan.SLO{P99: 12 * sim.Millisecond, MaxShed: 0.01}

// rpNamesCalls is how often a traced operation calls Profile.RPNames per
// board profile.
const rpNamesCalls = 20

// planWorkload is the planner's default workload for a seed.
func planWorkload(seed uint64) plan.Workload {
	return plan.Workload{
		Seed: seed, RatePerSec: planRate, Requests: planRequests,
		ASPs: plan.DefaultASPs(), Deadline: planDeadline,
	}
}

// planDigest is the simulated output of one search.
type planDigest struct {
	Chosen                 string
	Watts, SimP99US        float64
	Scored, Frontier, Sims int
	StockBest, OverBest    string
	KernelEvents           uint64 // summed over the verifying simulations
}

type planBench struct {
	opts   plan.Options
	cands  []plan.Candidate
	errPct float64

	ref, first *planDigest
	res        *plan.Result // the first operation's

	// Traced-run tallies.
	scoreAllocs sim.Sample // heap objects per Surrogate.Score
	tierB       sim.Sample // ms, cold minus warm search per op
}

func newPlan(seed uint64) (bench, error) {
	b := &planBench{
		opts:  plan.Options{Workload: planWorkload(seed), SLO: planSLO, Workers: 1},
		cands: plan.Space{}.Enumerate(),
	}
	var err error
	if b.errPct, err = tableIProbe(seed); err != nil {
		return nil, err
	}
	if seed == DefaultSeed {
		ref := referencePlan
		b.ref = &ref
	}
	return b, nil
}

func (b *planBench) minOps() int { return 1 }

// search runs one search sharing the given memo.
func (b *planBench) search(memo *plan.Memo) (*plan.Result, error) {
	o := b.opts
	o.Memo = memo
	return plan.Search(context.Background(), o)
}

func (b *planBench) op() error {
	res, err := b.search(plan.NewMemo())
	if err != nil {
		return err
	}
	return b.check(res)
}

func (b *planBench) tracedOp(tr *tracer) error {
	tr.nextOp()
	memo := plan.NewMemo()
	tr.begin("op")
	tr.begin("plan.Search(cold)")
	res, err := b.search(memo)
	cold := tr.end()
	tr.end()
	if err != nil {
		return err
	}
	if err := b.check(res); err != nil {
		return err
	}

	tr.begin("probe")
	defer tr.end()
	tr.begin("plan.Search(warm)")
	warm, err := b.search(memo)
	hot := tr.end()
	if err != nil {
		return err
	}
	if warm.SimsRun != 0 {
		return fmt.Errorf("warm search ran %d simulations", warm.SimsRun)
	}
	if err := b.check(warm); err != nil {
		return err
	}
	b.tierB.Add(float64(cold-hot) / 1e6)

	sur := plan.NewSurrogate()
	o0, _ := allocs()
	tr.begin("plan.TierA")
	for _, c := range b.cands {
		tr.begin("plan.Surrogate.Score")
		_, err := sur.Score(c, b.opts.Workload, b.opts.SLO)
		tr.end()
		if err != nil {
			tr.end()
			return err
		}
	}
	tr.end()
	o1, _ := allocs()
	b.scoreAllocs.Add(float64(o1-o0) / float64(len(b.cands)))

	for _, prof := range platform.Boards() {
		tr.begin("platform.NewDevice")
		prof.NewDevice()
		tr.end()
		for i := 0; i < rpNamesCalls; i++ {
			tr.begin("platform.RPNames")
			prof.RPNames()
			tr.end()
		}
	}
	return nil
}

// check verifies one search: a plan was chosen, and the simulated output
// equals the run's first and, on the default seed, the committed
// reference. Memo warmth must not change it.
func (b *planBench) check(res *plan.Result) error {
	if res.Chosen == nil || res.StockBest == nil || res.OverBest == nil {
		return fmt.Errorf("search chose no plan or lacks a baseline")
	}
	d := planDigest{
		Chosen:    res.Chosen.Candidate.Label(),
		Watts:     res.Chosen.Pred.Watts,
		SimP99US:  res.Chosen.SimP99US,
		Scored:    res.CandidatesScored,
		Frontier:  len(res.Frontier),
		Sims:      res.SimsRun + res.MemoHits,
		StockBest: res.StockBest.Candidate.Label(),
		OverBest:  res.OverBest.Candidate.Label(),
	}
	for _, v := range res.Verified {
		d.KernelEvents += v.Stats.KernelEvents
	}
	if b.first == nil {
		b.first, b.res = &d, res
	}
	if d != *b.first {
		return fmt.Errorf("search %s differs from the run's first %s", digestString(d), digestString(*b.first))
	}
	if b.ref != nil && d != *b.ref {
		return fmt.Errorf("search %s differs from the reference %s", digestString(d), digestString(*b.ref))
	}
	return nil
}

func (b *planBench) digest() string {
	if b.first == nil {
		return "none"
	}
	return digestString(*b.first)
}

func (b *planBench) simMetrics() map[string]float64 {
	if b.res == nil {
		return nil
	}
	// The chosen plan as tier A predicts it: seed-independent, unlike its
	// 192-request verifying simulation, whose outputs are in the digest.
	pred := b.res.Chosen.Pred
	return map[string]float64{
		"paper_err_pct":   b.errPct,
		"sim_p99_ms":      pred.P99US / 1e3,
		"sim_goodput_rps": b.opts.Workload.RatePerSec * (1 - pred.Shed),
		"plan_watts":      pred.Watts,
	}
}

func (b *planBench) layerMetrics(tr *tracer) map[string]float64 {
	if b.res == nil {
		return nil
	}
	tierB := b.tierB.Quantile(0.5)
	return map[string]float64{
		"sim.events_per_op":      float64(b.first.KernelEvents),
		"sim.ns_per_event":       tierB * 1e6 / float64(b.first.KernelEvents),
		"platform.new_device_ms": tr.median("platform.NewDevice", time.Millisecond),
		"platform.rp_names_us":   tr.median("platform.RPNames", time.Microsecond),
		"plan.score_us":          tr.median("plan.Surrogate.Score", time.Microsecond),
		"plan.allocs_per_score":  b.scoreAllocs.Mean(),
		"plan.tier_a_ms":         tr.median("plan.TierA", time.Millisecond),
		"plan.tier_b_ms":         tierB,
		"plan.candidates_per_op": float64(b.first.Scored),
		"plan.sims_per_op":       float64(b.res.SimsRun),
	}
}
