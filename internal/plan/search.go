package plan

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/hll"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workpool"
)

// Planner defaults. The workload defaults mirror the fleet scenarios (the
// E9/E11 accelerator mix, the 20 ms interactive deadline, 192-request
// verification streams); the default offered rate and SLO sit above one
// board's cached saturation knee, where composition/frequency trade-offs
// are non-trivial.
const (
	simQueueCap     = 32
	defaultRate     = 2200
	defaultRequests = 192
	defaultDeadline = 20 * sim.Millisecond
	defaultP99      = 12 * sim.Millisecond
	defaultShed     = 0.01
)

// DefaultASPs is the planner's default accelerator mix (the mix the serve
// and fleet scenarios stream).
func DefaultASPs() []string { return []string{"fir128", "sha3", "aes-gcm", "fft1k"} }

// DefaultMaxSims is tier B's default verifying-simulation budget.
const DefaultMaxSims = 25

// Options parameterises Search. Zero-value fields take the documented
// defaults, so Options{} plans the standard E17 question.
type Options struct {
	// Workload is the stream to plan for (zero fields default: seed 0
	// stays 0, rate 2200 req/s, 192 requests, the standard ASP mix, 20 ms
	// deadlines).
	Workload Workload
	// SLO is the objective (zero = p99 ≤ 12 ms, shed ≤ 1%).
	SLO SLO
	// Space overrides the candidate axes (zero = the default space).
	Space Space
	// Candidates short-circuits enumeration with an explicit candidate
	// list (tests use reduced spaces).
	Candidates []Candidate
	// MaxSims bounds tier B's full fleet simulations (≤ 0 = 25). Memo hits
	// are free: they do not count against the budget.
	MaxSims int
	// Workers is the search's goroutine budget (≤ 1 = sequential): each
	// tier-B batch runs min(Workers, batch) simulations at once and gives
	// each simulation's fleet the rest of the budget for its per-epoch
	// board fan-out (see workpool.Split). Output is byte-identical at
	// every setting.
	Workers int
	// Memo, when non-nil, is the shared simulation cache and image store;
	// nil uses a fresh one private to this call.
	Memo *Memo
}

// Scored is one tier-A evaluated candidate.
type Scored struct {
	Candidate Candidate
	Pred      Prediction
}

// Verified is one tier-B evaluated candidate: the surrogate prediction plus
// the full-simulation measurement it was checked against.
type Verified struct {
	Scored
	// Stats is the verifying fleet simulation's merged outcome.
	Stats *cluster.FleetStats
	// SimP99US and SimShed are the measured p99 sojourn (µs) and lost
	// fraction (shed + unroutable + crash-lost over arrivals).
	SimP99US float64
	SimShed  float64
	// Pass reports whether the measurement meets the SLO.
	Pass bool
	// Memoized reports whether the result came from the cache instead of a
	// fresh simulation.
	Memoized bool
}

// Result is the deterministic outcome of one Search.
type Result struct {
	// Workload and SLO echo the resolved (defaulted) question.
	Workload Workload
	SLO      SLO
	// CandidatesScored counts tier A's evaluations; Frontier holds the
	// Pareto-optimal ones in ascending-watts order.
	CandidatesScored int
	Frontier         []Scored
	// Verified lists every tier-B evaluation in verification order.
	Verified []Verified
	// Chosen is the cheapest frontier candidate whose verifying simulation
	// met the SLO (nil when none did within the budget). StockBest and
	// OverBest are the single-knob baselines: the cheapest sim-passing
	// configuration at the lowest and highest frequency of the space.
	Chosen, StockBest, OverBest *Verified
	// SimsRun counts fresh fleet simulations; MemoHits the cache returns.
	SimsRun, MemoHits int
}

// resolve applies the documented defaults.
func (o *Options) resolve() {
	if o.Workload.RatePerSec <= 0 {
		o.Workload.RatePerSec = defaultRate
	}
	if o.Workload.Requests <= 0 {
		o.Workload.Requests = defaultRequests
	}
	if len(o.Workload.ASPs) == 0 {
		o.Workload.ASPs = DefaultASPs()
	}
	if o.Workload.Deadline <= 0 {
		o.Workload.Deadline = defaultDeadline
	}
	if o.SLO.P99 <= 0 {
		o.SLO.P99 = defaultP99
	}
	if o.SLO.MaxShed <= 0 {
		o.SLO.MaxShed = defaultShed
	}
	if o.MaxSims <= 0 {
		o.MaxSims = DefaultMaxSims
	}
}

// simulate runs one candidate's verifying full fleet simulation: the exact
// stream the workload describes, served by a freshly built fleet whose
// boards take their images from the given store.
func simulate(c Candidate, w Workload, fleetWorkers int, images *hll.ImageStore) (*cluster.FleetStats, error) {
	rps, err := cluster.CommonRPs(c.Boards)
	if err != nil {
		return nil, err
	}
	spec := workload.ArrivalSpec{RatePerSec: w.RatePerSec, Deadline: w.Deadline}
	tr, err := spec.Generate(w.Seed, w.Requests, rps, w.ASPs)
	if err != nil {
		return nil, err
	}
	router, err := cluster.RouterByName(c.Router)
	if err != nil {
		return nil, err
	}
	fcfg := cluster.FleetConfig{
		Boards:  c.Boards,
		Seed:    w.Seed,
		FreqMHz: c.FreqMHz,
		Router:  router,
		Workers: fleetWorkers,
		Service: cluster.ServiceTemplate{
			QueueCap: simQueueCap,
			Prewarm:  w.ASPs,
			Images:   images,
		},
	}
	switch {
	case c.CacheImages > 0:
		fcfg.Service.CacheBudgetImages = c.CacheImages
	case c.CacheImages < 0:
		fcfg.Service.CacheBudgetBytes = -1
	}
	f, err := cluster.New(fcfg)
	if err != nil {
		return nil, err
	}
	return f.Serve(tr)
}

// verify folds a simulation outcome into a Verified.
func verify(s Scored, st *cluster.FleetStats, slo SLO, memoized bool) *Verified {
	v := &Verified{Scored: s, Stats: st, Memoized: memoized}
	v.SimP99US = st.Aggregate.SojournUS.Quantile(0.99)
	if st.Arrivals > 0 {
		v.SimShed = float64(st.Unroutable+st.Aggregate.Shed+st.Aggregate.Lost) / float64(st.Arrivals)
	}
	v.Pass = v.SimP99US <= slo.P99.Microseconds() && v.SimShed <= slo.MaxShed
	return v
}

// queue walks one ordered candidate list looking for its first sim-passing
// entry.
type queue struct {
	idx  []int // candidate indices in ascending predicted watts
	pos  int
	done *Verified
}

// Search runs the two-tier plan search. Tier A scores every candidate and
// prunes to the Pareto frontier; tier B walks three watts-ordered queues —
// the feasible frontier (the plan), the all-stock-clock sweep and the
// all-max-clock sweep (the single-knob baselines) — verifying each queue's
// head with a full simulation until every queue has a passing entry or the
// simulation budget is spent. Each round's batch is fixed before any
// simulation runs and results merge in candidate-index order, so the search
// is a pure function of (workload, SLO, space): worker counts and memo
// warmth change wall clock, never bytes.
func Search(ctx context.Context, o Options) (*Result, error) {
	o.resolve()
	cands := o.Candidates
	if cands == nil {
		cands = o.Space.Enumerate()
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("plan: empty candidate space")
	}
	memo := o.Memo
	if memo == nil {
		memo = NewMemo()
	}

	// Tier A: score everything, take the frontier.
	sur := NewSurrogate()
	preds := make([]Prediction, len(cands))
	for i, c := range cands {
		var err error
		if preds[i], err = sur.Score(c, o.Workload, o.SLO); err != nil {
			return nil, err
		}
	}
	frontier := Frontier(preds)

	res := &Result{Workload: o.Workload, SLO: o.SLO, CandidatesScored: len(cands)}
	byWatts := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool {
			if preds[idx[a]].Watts != preds[idx[b]].Watts {
				return preds[idx[a]].Watts < preds[idx[b]].Watts
			}
			return idx[a] < idx[b]
		})
	}
	frontierSorted := append([]int(nil), frontier...)
	byWatts(frontierSorted)
	for _, i := range frontierSorted {
		res.Frontier = append(res.Frontier, Scored{Candidate: cands[i], Pred: preds[i]})
	}

	// The three tier-B queues: feasible frontier, and the two single-knob
	// baseline sweeps at the extreme frequencies of the space.
	loFreq, hiFreq := cands[0].FreqMHz, cands[0].FreqMHz
	for _, c := range cands[1:] {
		if c.FreqMHz < loFreq {
			loFreq = c.FreqMHz
		}
		if c.FreqMHz > hiFreq {
			hiFreq = c.FreqMHz
		}
	}
	var main, stock, over queue
	for _, i := range frontierSorted {
		if preds[i].Feasible {
			main.idx = append(main.idx, i)
		}
	}
	for i := range cands {
		if !preds[i].Feasible {
			continue
		}
		if cands[i].FreqMHz == loFreq {
			stock.idx = append(stock.idx, i)
		}
		if cands[i].FreqMHz == hiFreq {
			over.idx = append(over.idx, i)
		}
	}
	byWatts(stock.idx)
	byWatts(over.idx)

	// Tier B: verify queue heads in refinement rounds until each queue has
	// a passing candidate or the budget is gone.
	verified := make(map[int]*Verified)
	queues := []*queue{&main, &stock, &over}
	advance := func(q *queue) {
		for q.done == nil && q.pos < len(q.idx) {
			v, ok := verified[q.idx[q.pos]]
			if !ok {
				return // head needs a simulation
			}
			if v.Pass {
				q.done = v
				return
			}
			q.pos++
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var need []int
		pending := make(map[int]bool)
		for _, q := range queues {
			advance(q)
			if q.done == nil && q.pos < len(q.idx) && !pending[q.idx[q.pos]] {
				pending[q.idx[q.pos]] = true
				need = append(need, q.idx[q.pos])
			}
		}
		if len(need) == 0 {
			break
		}
		// Memo hits resolve for free; fresh simulations spend budget.
		var cold []int
		for _, i := range need {
			if st, ok := memo.get(Key(cands[i], o.Workload)); ok {
				res.MemoHits++
				v := verify(Scored{Candidate: cands[i], Pred: preds[i]}, st, o.SLO, true)
				verified[i] = v
				res.Verified = append(res.Verified, *v)
				continue
			}
			cold = append(cold, i)
		}
		if len(cold) > 0 {
			if remaining := o.MaxSims - res.SimsRun; len(cold) > remaining {
				cold = cold[:remaining]
			}
			if len(cold) == 0 {
				break // budget exhausted with work outstanding
			}
			stats := make([]*cluster.FleetStats, len(cold))
			errs := make([]error, len(cold))
			fanout, fleetWorkers := workpool.Split(o.Workers, len(cold))
			workpool.Run(len(cold), fanout, func(k int) {
				if err := ctx.Err(); err != nil {
					errs[k] = err
					return
				}
				stats[k], errs[k] = simulate(cands[cold[k]], o.Workload, fleetWorkers, memo.images)
			})
			for k, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("plan: candidate %q: %w", cands[cold[k]].Label(), err)
				}
			}
			// Fold in fixed (batch) order so the memo, the verification log
			// and the counters are schedule-independent.
			for k, i := range cold {
				memo.put(Key(cands[i], o.Workload), stats[k])
				res.SimsRun++
				v := verify(Scored{Candidate: cands[i], Pred: preds[i]}, stats[k], o.SLO, false)
				verified[i] = v
				res.Verified = append(res.Verified, *v)
			}
		}
	}
	for _, q := range queues {
		advance(q)
	}
	res.Chosen, res.StockBest, res.OverBest = main.done, stock.done, over.done
	return res, nil
}
