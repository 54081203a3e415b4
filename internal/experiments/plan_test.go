package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/sim"
)

// TestPlanAcceptance pins the E17 headline on the standard question: the
// search must cover a non-trivial candidate space with a handful of
// verifying simulations, and the chosen plan must meet the SLO in its
// verifying simulation at strictly lower predicted watts than both
// single-knob baselines (all stock clocks, all over-clocked).
func TestPlanAcceptance(t *testing.T) {
	cfg := Config{Seed: 42}
	res, err := plan.Search(context.Background(), plan.Options{
		Workload: planWorkload(cfg),
		SLO:      planSLO(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesScored < 500 {
		t.Errorf("scored %d candidates, want ≥ 500", res.CandidatesScored)
	}
	if res.SimsRun > plan.DefaultMaxSims {
		t.Errorf("ran %d simulations, budget is %d", res.SimsRun, plan.DefaultMaxSims)
	}
	for _, v := range []struct {
		name string
		v    *plan.Verified
	}{{"chosen", res.Chosen}, {"stock", res.StockBest}, {"over-clocked", res.OverBest}} {
		if v.v == nil {
			t.Fatalf("no %s plan found", v.name)
		}
		if !v.v.Pass {
			t.Errorf("%s plan %s fails its verifying simulation", v.name, v.v.Candidate.Label())
		}
	}
	if cw := res.Chosen.Pred.Watts; cw >= res.StockBest.Pred.Watts || cw >= res.OverBest.Pred.Watts {
		t.Errorf("chosen plan at %.2f W is not strictly cheaper than stock %.2f W / over-clocked %.2f W",
			cw, res.StockBest.Pred.Watts, res.OverBest.Pred.Watts)
	}
}

// TestPlanScenarioWorkerCountEquality pins E17 at the scenario level:
// the full report must be byte-identical whether tier B's verifying
// simulations run sequentially or fan out over 4 workers (E17 is one
// shard, so a budget of 4 is all its own).
func TestPlanScenarioWorkerCountEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E17 scenario twice")
	}
	s, ok := Lookup("E17")
	if !ok {
		t.Fatal("E17 not registered")
	}
	run := func(budget int) string {
		rep, err := runOne(s, Config{Seed: 42}, budget)
		if err != nil {
			t.Fatal(err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if seq, par := run(1), run(4); seq != par {
		t.Error("E17 report changes with Workers=4")
	}
}

// TestSurrogateCalibration checks tier A against ground truth: the
// surrogate's predicted saturation knee must track the knee the full E11
// simulation measures, on every registered platform. The cached curve —
// the regime the planner actually plans in — must agree to within 15%
// relative error; the no-cache curve (SD staging dominates, the knee sits
// between two log-spaced grid points) must land within one grid step.
func TestSurrogateCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E11 saturation sweep")
	}
	cfg := Config{Seed: 42}
	s, ok := Lookup("E11")
	if !ok {
		t.Fatal("E11 not registered")
	}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]sim.Series)
	for _, sr := range rep.Series {
		series[sr.Name] = sr
	}

	grid := satRateGrid(cfg)
	step := func(rate float64) int {
		for i, r := range grid {
			if r == rate {
				return i
			}
		}
		t.Fatalf("knee rate %g not on the grid %v", rate, grid)
		return -1
	}
	sur := plan.NewSurrogate()
	w := plan.Workload{Requests: satRequests, ASPs: satASPs, Deadline: serveDeadline}
	for _, name := range boardNames(cfg) {
		for _, mode := range []struct {
			suffix string
			cached bool
		}{{"_cache", true}, {"_nocache", false}} {
			simSeries, ok := series["e11_"+name+mode.suffix]
			if !ok {
				t.Fatalf("missing E11 series for %s%s", name, mode.suffix)
			}
			simKnee, _ := SaturationKnee(simSeries.Points)
			pts, err := sur.KneeCurve(name, serveFreqMHz, mode.cached, grid, w)
			if err != nil {
				t.Fatal(err)
			}
			predKnee, _ := SaturationKnee(pts)
			if mode.cached {
				relErr := math.Abs(predKnee-simKnee) / simKnee
				if relErr > 0.15 {
					t.Errorf("%s cached: surrogate knee %.0f vs simulated %.0f req/s (%.0f%% error, want ≤ 15%%)",
						name, predKnee, simKnee, 100*relErr)
				}
			} else if d := step(predKnee) - step(simKnee); d < -1 || d > 1 {
				t.Errorf("%s no-cache: surrogate knee %.0f vs simulated %.0f req/s (%d grid steps apart, want ≤ 1)",
					name, predKnee, simKnee, d)
			}
		}
	}
}
