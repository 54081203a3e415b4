package pdr

import (
	"context"

	"repro/internal/plan"
)

// Re-exported planner types. The planner answers the capacity question the
// paper's frequency knob opens up: to meet a latency/shed SLO at a given
// offered load, is it cheaper to run more boards at stock clocks or fewer
// boards over-clocked? Plan searches that space with a two-tier engine — a
// closed-form queueing surrogate scores every candidate in microseconds,
// and only the Pareto-optimal survivors are re-evaluated with full fleet
// simulations (memoized, fanned out over a worker pool, merged in fixed
// order so the answer is byte-identical at every worker count).
type (
	// PlanWorkload is the request stream to plan for.
	PlanWorkload = plan.Workload
	// PlanSLO is the planning objective: a p99 sojourn bound and a maximum
	// tolerable shed fraction.
	PlanSLO = plan.SLO
	// PlanSpace parameterises candidate enumeration (compositions, fleet
	// sizes, frequencies, routers, cache budgets).
	PlanSpace = plan.Space
	// PlanCandidate is one fleet configuration under consideration.
	PlanCandidate = plan.Candidate
	// PlanPrediction is the surrogate's closed-form estimate for one
	// candidate: watts, p99, shed, utilisation, configuration energy.
	PlanPrediction = plan.Prediction
	// PlanScored pairs a candidate with its surrogate prediction.
	PlanScored = plan.Scored
	// PlanVerified is one tier-B evaluation: the prediction plus the full
	// fleet simulation it was checked against.
	PlanVerified = plan.Verified
	// PlanResult is the deterministic outcome of one search: the frontier,
	// the verification log, the chosen plan and the single-knob baselines.
	PlanResult = plan.Result
	// PlanMemo caches verifying simulations across Plan calls (re-planning
	// the same space under a different SLO reuses every simulation).
	PlanMemo = plan.Memo
	// PlanWhatIf overrides the surrogate's transfer model for hypothetical
	// hardware (e.g. the Sec.-VI SRAM-PDR estimate).
	PlanWhatIf = plan.WhatIf
)

// NewPlanMemo builds an empty simulation cache to share between Plan calls.
func NewPlanMemo() *PlanMemo { return plan.NewMemo() }

// PlanOptions configures Plan. The zero value plans the standard question:
// the E9/E11 accelerator mix at 2200 req/s against a 12 ms p99 / 1% shed
// SLO, over the default candidate space, with at most 25 verifying
// simulations. Workers is the search's goroutine budget; output is
// byte-identical at every setting.
type PlanOptions = plan.Options

// Plan runs the two-tier capacity search and returns its deterministic
// result: the same (workload, SLO, space) always yields the same bytes,
// whatever the worker counts or memo warmth.
func Plan(ctx context.Context, opts PlanOptions) (*PlanResult, error) {
	return plan.Search(ctx, opts)
}
