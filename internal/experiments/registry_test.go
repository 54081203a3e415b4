package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "A1", "A2", "A3", "A4", "A5"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d: %v", len(got), len(want), got)
	}
	for i, id := range want {
		if got[i] != id {
			t.Errorf("registry[%d] = %s, want %s (suite order)", i, got[i], id)
		}
	}
}

func TestLookupByIDAndAlias(t *testing.T) {
	byID, ok := Lookup("E1")
	if !ok || byID.ID != "E1" {
		t.Fatalf("Lookup(E1) = %+v, %v", byID, ok)
	}
	byAlias, ok := Lookup("tableI")
	if !ok || byAlias.ID != "E1" {
		t.Fatalf("Lookup(tableI) = %+v, %v", byAlias, ok)
	}
	if _, ok := Lookup("E42"); ok {
		t.Error("Lookup(E42) succeeded")
	}
}

func TestShardPlanFixed(t *testing.T) {
	cfg := Config{Seed: 42}
	// E11: 3 boards × 3 rate segments (6 rates, 2 per shard); E12: one
	// shard per dispatch policy.
	// E13: 2 compositions × (4 sizes + the autoscaled point); E14 and E15:
	// one shard per routing policy; E16: one shard per scaler policy.
	plans := map[string]int{"E1": 1, "E2": 3, "E3": 7, "E4": 4, "E9": 4, "E10": 3, "E11": 9, "E12": 3, "E13": 10, "E14": 4, "E15": 4, "E16": 2, "E17": 1, "A5": 1}
	for id, want := range plans {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		if got := s.Shards(cfg); got != want {
			t.Errorf("%s shard plan = %d, want %d", id, got, want)
		}
	}
	// A rate-grid override reshapes the E11 plan deterministically.
	small := cfg
	small.Rates = []float64{100, 400}
	if s, _ := Lookup("E11"); s.Shards(small) != 3 {
		t.Errorf("E11 with 2 rates = %d shards, want 3 (1 segment × 3 boards)", s.Shards(small))
	}
}

func TestServeScenarioPlatformColumns(t *testing.T) {
	cfg := Config{Seed: 42}
	for _, id := range []string{"E10", "E11"} {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		if s.Platforms == nil {
			t.Fatalf("%s should declare its platform span", id)
		}
		if got := s.Platforms(cfg); len(got) != 3 {
			t.Errorf("%s platforms = %v, want the 3 boards", id, got)
		}
	}
	if s, _ := Lookup("E12"); s.Platforms != nil {
		t.Error("E12 runs on the campaign platform (nil Platforms)")
	}
}

func TestSegBounds(t *testing.T) {
	// Segments must partition [0,n) contiguously with sizes differing by
	// at most one, for any (n, k).
	for _, tc := range []struct{ n, k int }{{21, 3}, {7, 7}, {96, 4}, {5, 3}, {3, 3}} {
		prev := 0
		minSz, maxSz := tc.n, 0
		for i := 0; i < tc.k; i++ {
			lo, hi := segBounds(tc.n, tc.k, i)
			if lo != prev {
				t.Errorf("segBounds(%d,%d,%d) lo = %d, want %d", tc.n, tc.k, i, lo, prev)
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = hi
		}
		if prev != tc.n {
			t.Errorf("segBounds(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.k, prev, tc.n)
		}
		if maxSz-minSz > 1 {
			t.Errorf("segBounds(%d,%d) sizes range %d–%d", tc.n, tc.k, minSz, maxSz)
		}
	}
}

// TestRenderRaggedRows: rows wider than the header must widen the table
// (with empty header cells) and rows narrower must pad — no misalignment,
// no panic.
func TestRenderRaggedRows(t *testing.T) {
	rep := &Report{
		ID:     "T1",
		Title:  "ragged",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "extra-wide-cell"},
			{"only"},
			{"x", "y"},
		},
	}
	out := rep.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
	width := len(lines[2]) // separator spans every column
	for i, line := range lines[1:] {
		if len(strings.TrimRight(line, " ")) > width {
			t.Errorf("line %d wider than separator (%d > %d): %q", i+1, len(line), width, line)
		}
	}
	if !strings.Contains(lines[3], "extra-wide-cell") {
		t.Errorf("wide cell missing: %q", lines[3])
	}
	// The third column exists even though the header has two.
	if got := len(strings.Fields(lines[2])); got != 3 {
		t.Errorf("separator has %d column dashes, want 3:\n%s", got, out)
	}
}

func TestRenderStableAcrossCalls(t *testing.T) {
	rep := &Report{ID: "T2", Title: "t", Header: []string{"h"}, Rows: [][]string{{"v"}}}
	if rep.Render() != rep.Render() {
		t.Error("Render not deterministic")
	}
}

func TestReportJSONStable(t *testing.T) {
	rep := &Report{
		ID: "T3", Title: "json", Header: []string{"h"},
		Rows:   [][]string{{"v"}},
		Series: []sim.Series{{Name: "s", XLabel: "x", YLabel: "y", Points: []sim.Point{{X: 1, Y: 2}}}},
		Notes:  []string{"n"},
	}
	a, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("JSON not byte-stable")
	}
	var round Report
	if err := json.Unmarshal(a, &round); err != nil {
		t.Fatal(err)
	}
	if round.ID != "T3" || round.Series[0].Points[0].Y != 2 {
		t.Errorf("round trip = %+v", round)
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	rep := &Report{ID: "T4", Title: "a|b", Header: []string{"h|1"}, Rows: [][]string{{"v|2"}}}
	md := rep.Markdown()
	for _, want := range []string{`a\|b`, `h\|1`, `v\|2`} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing escaped %q:\n%s", want, md)
		}
	}
}

// TestScenarioCancellation: a sharded scenario must stop between
// measurement points when its context dies.
func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, _ := Lookup("E3")
	if _, err := s.Run(ctx, newBoards(t, Config{Seed: 42}), 0); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestWholeArtefactCancellation: the whole-artefact runners measure under
// the shard's ctx, so E1's sweep and E5's grid stop when it dies instead
// of running to the end.
func TestWholeArtefactCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, run := range []func(context.Context, *Env) (*Report, error){TableI, TableII} {
		if _, err := run(ctx, newEnv(t)); err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}
}

// TestShardDeterminism: re-running the same shard on a fresh source must
// give identical partial output — the property the campaign merge relies
// on.
func TestShardDeterminism(t *testing.T) {
	s, _ := Lookup("E4")
	runShard := func() string {
		rep, err := s.Run(context.Background(), newBoards(t, Config{Seed: 42}), 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if a, b := runShard(), runShard(); a != b {
		t.Errorf("shard output differs:\n%s\nvs\n%s", a, b)
	}
}
