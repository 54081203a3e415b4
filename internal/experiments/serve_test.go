package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSaturationKnee(t *testing.T) {
	pts := func(ys ...float64) []sim.Point {
		out := make([]sim.Point, len(ys))
		for i, y := range ys {
			out[i] = sim.Point{X: float64((i + 1) * 100), Y: y}
		}
		return out
	}
	if knee, div := SaturationKnee(pts(1, 1.2, 2, 8, 40)); !div || knee != 300 {
		t.Errorf("knee = %v/%v, want 300/true (diverges at 400)", knee, div)
	}
	if knee, div := SaturationKnee(pts(1, 1.5, 2, 3)); div || knee != 400 {
		t.Errorf("knee = %v/%v, want 400/false (never diverges)", knee, div)
	}
	if knee, div := SaturationKnee(nil); div || knee != 0 {
		t.Errorf("empty curve: %v/%v", knee, div)
	}
}

// TestSaturateScenarioSmallGrid runs E11 through the canonical sequential
// path on a reduced rate grid: one stable rate and one far past the
// no-cache capacity, checking the cache-vs-ablation contrast the scenario
// exists to measure.
func TestSaturateScenarioSmallGrid(t *testing.T) {
	s, ok := Lookup("E11")
	if !ok {
		t.Fatal("E11 not registered")
	}
	cfg := Config{Seed: 42, Rates: []float64{50, 400}}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 boards × 2 rates × 2 modes.
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rep.Rows))
	}
	// The p99 column must render for every row (tail latency surfaced).
	p99col := len(satHeader) - 2
	if satHeader[p99col] != "p99 [ms]" {
		t.Fatalf("header layout changed: %v", satHeader)
	}
	for i, row := range rep.Rows {
		if row[p99col] == "" {
			t.Errorf("row %d missing p99", i)
		}
	}
	// Per-platform knee notes comparing cache vs no-cache.
	kneeNotes := 0
	for _, n := range rep.Notes {
		if strings.Contains(n, "saturation knee") {
			kneeNotes++
		}
	}
	if kneeNotes != 3 {
		t.Errorf("knee notes = %d, want one per board", kneeNotes)
	}
	// 2 series (cache/nocache) per board.
	if len(rep.Series) != 6 {
		t.Errorf("series = %d, want 6", len(rep.Series))
	}
}

func TestSchedScenarioComparesPolicies(t *testing.T) {
	s, ok := Lookup("E12")
	if !ok {
		t.Fatal("E12 not registered")
	}
	rep, err := runOne(s, Config{Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 policies × 3 budgets.
	if len(rep.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rep.Rows))
	}
	if rep.Rows[0][0] != "fcfs" || rep.Rows[3][0] != "sbf" || rep.Rows[6][0] != "affinity" {
		t.Errorf("policy order wrong: %v %v %v", rep.Rows[0][0], rep.Rows[3][0], rep.Rows[6][0])
	}
	// The thrashing budget must show evictions; the profile budget none.
	if rep.Rows[0][7] == "0" {
		t.Error("4-image budget should evict")
	}
	if rep.Rows[2][7] != "0" {
		t.Errorf("profile budget evicted: %v", rep.Rows[2])
	}
}
