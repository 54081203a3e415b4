package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestScaleoutScenarioSmallGrid runs E13 through the canonical sequential
// path on a reduced size grid: one board versus two, above the single-board
// knee, checking the headline the scenario exists to measure — goodput
// scales with fleet size.
func TestScaleoutScenarioSmallGrid(t *testing.T) {
	s, ok := Lookup("E13")
	if !ok {
		t.Fatal("E13 not registered")
	}
	cfg := Config{Seed: 42, FleetSizes: []int{1, 2}}
	if got := s.Shards(cfg); got != 6 {
		t.Fatalf("shards = %d, want 6 (2 compositions × (2 sizes + auto))", got)
	}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	// Goodput (column 6) must grow from 1 to 2 boards in both compositions.
	goodput := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("goodput cell %q: %v", row[6], err)
		}
		return v
	}
	for _, comp := range []int{0, 3} { // first row of each composition block
		one, two := goodput(rep.Rows[comp]), goodput(rep.Rows[comp+1])
		if two <= 1.5*one {
			t.Errorf("%s: goodput %v → %v from 1 to 2 boards, want ≥1.5× scaling", rep.Rows[comp][0], one, two)
		}
	}
	// The autoscaled rows carry the active-set trajectory and a note.
	autoRows := 0
	for _, row := range rep.Rows {
		if strings.Contains(row[0], "(auto)") {
			autoRows++
		}
	}
	if autoRows != 2 {
		t.Errorf("auto rows = %d, want one per composition", autoRows)
	}
	scalingNotes := 0
	for _, n := range rep.Notes {
		if strings.Contains(n, "goodput scales") {
			scalingNotes++
		}
	}
	if scalingNotes != 2 {
		t.Errorf("scaling notes = %d, want one per composition:\n%v", scalingNotes, rep.Notes)
	}
	// Goodput series stitched per composition, sorted by fleet size.
	series := map[string]int{}
	for _, sr := range rep.Series {
		series[sr.Name] = len(sr.Points)
	}
	if series["e13_zedboard_goodput"] != 2 || series["e13_mixed_p99"] != 2 {
		t.Errorf("series shape wrong: %v", series)
	}
}

// TestRouteScenarioAffinityWins runs E14 sequentially and checks the
// acceptance headline: bitstream-affinity routing beats round-robin on
// both cache hit ratio and p99 under skewed image popularity.
func TestRouteScenarioAffinityWins(t *testing.T) {
	s, ok := Lookup("E14")
	if !ok {
		t.Fatal("E14 not registered")
	}
	cfg := Config{Seed: 42}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want one per router", len(rep.Rows))
	}
	metrics := map[string][2]float64{} // router → {hit ratio, p99 us}
	for _, sr := range rep.Series {
		if len(sr.Points) == 2 {
			metrics[strings.TrimPrefix(sr.Name, "e14_")] = [2]float64{sr.Points[0].Y, sr.Points[1].Y}
		}
	}
	aff, rr := metrics["affinity"], metrics["round-robin"]
	if aff[0] <= rr[0] {
		t.Errorf("affinity hit ratio %.2f must beat round-robin %.2f", aff[0], rr[0])
	}
	if aff[1] >= rr[1] {
		t.Errorf("affinity p99 %.0f us must beat round-robin %.0f us", aff[1], rr[1])
	}
	headline := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "bitstream-affinity") {
			headline = true
		}
	}
	if !headline {
		t.Errorf("missing affinity headline note:\n%v", rep.Notes)
	}
}

// TestFleetScenarioDeterminism repeats a reduced E13 and full E14 run and
// requires byte-identical reports — the fleet scenarios inherit the
// campaign's pure-function contract.
func TestFleetScenarioDeterminism(t *testing.T) {
	for _, tc := range []struct {
		id  string
		cfg Config
	}{
		{"E13", Config{Seed: 42, FleetSizes: []int{2}}},
		{"E14", Config{Seed: 42}},
	} {
		s, ok := Lookup(tc.id)
		if !ok {
			t.Fatalf("%s not registered", tc.id)
		}
		run := func() string {
			rep, err := runOne(s, tc.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s reports differ across identical runs", tc.id)
		}
	}
}
