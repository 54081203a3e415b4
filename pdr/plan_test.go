package pdr_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/pdr"
)

// TestPlanMatchesSearch runs pdr.Plan on a small explicit candidate list
// and requires the same result, chosen plan included, as the planner's
// own search on the same options.
func TestPlanMatchesSearch(t *testing.T) {
	var cands []pdr.PlanCandidate
	for n := 1; n <= 3; n++ {
		for _, freq := range []float64{100, 200} {
			cands = append(cands, pdr.PlanCandidate{
				Boards:  make([]cluster.BoardSpec, n),
				FreqMHz: freq,
				Router:  "round-robin",
			})
		}
	}
	opts := pdr.PlanOptions{
		Workload:   pdr.PlanWorkload{Seed: 7, RatePerSec: 600, Requests: 64, Deadline: 20 * sim.Millisecond},
		SLO:        pdr.PlanSLO{P99: 15 * sim.Millisecond, MaxShed: 0.01},
		Candidates: cands,
	}
	got, err := pdr.Plan(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Search(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Chosen == nil || got.CandidatesScored != len(cands) {
		t.Fatalf("degenerate plan: chosen=%v scored=%d of %d", got.Chosen, got.CandidatesScored, len(cands))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pdr.Plan result differs from plan.Search on the same options")
	}
}
