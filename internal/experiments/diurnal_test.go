package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDiurnalScenario runs E16 through the canonical sequential path and
// checks the headline the scenario exists to measure: through the flash
// crowd the predictive scaler sheds a smaller fraction than the reactive
// one, because the forecast retargets several boards per window while the
// reactive policy adds one.
func TestDiurnalScenario(t *testing.T) {
	s, ok := Lookup("E16")
	if !ok {
		t.Fatal("E16 not registered")
	}
	cfg := Config{Seed: 42}
	if got := s.Shards(cfg); got != 2 {
		t.Fatalf("shards = %d, want 2 (one per scaler policy)", got)
	}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	flashShed := make(map[string]float64)
	for _, row := range rep.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("flash shed cell %q: %v", row[4], err)
		}
		flashShed[row[0]] = v
	}
	re, okR := flashShed["reactive"]
	pr, okP := flashShed["predictive"]
	if !okR || !okP {
		t.Fatalf("missing policy rows: %v", flashShed)
	}
	if pr >= re {
		t.Errorf("flash-crowd shed: predictive %.1f%% should beat reactive %.1f%%", pr, re)
	}
	// Every shard contributes the staffing series, and the headline note
	// states the comparison.
	for _, name := range []string{"e16_reactive_boards", "e16_predictive_boards", "e16_predictive_forecast"} {
		found := false
		for _, ser := range rep.Series {
			if ser.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series %q missing", name)
		}
	}
	noted := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "flash crowd") && strings.Contains(n, "sheds") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("headline note missing from %v", rep.Notes)
	}
}

// TestDiurnalScenarioDeterministic: E16 is a pure function of the
// configuration — two sequential runs encode byte-identically.
func TestDiurnalScenarioDeterministic(t *testing.T) {
	s, _ := Lookup("E16")
	cfg := Config{Seed: 7}
	a, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("two sequential E16 runs differ")
	}
}

// TestDiurnalTraceReplay: serving a recorded trace file reproduces the
// generated run row for row — the versioned trace format carries
// everything the scenario consumes (times, targets, tenants, classes,
// deadlines).
func TestDiurnalTraceReplay(t *testing.T) {
	cfg := Config{Seed: 42}
	tr, err := DiurnalTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty diurnal trace")
	}
	classed := 0
	for _, req := range tr {
		if req.Class != "" {
			classed++
		}
	}
	if classed != len(tr) {
		t.Fatalf("%d/%d requests classed, want all", classed, len(tr))
	}
	data, err := workload.ExportTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "day.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := Lookup("E16")
	gen, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	if err := replayCfg.Set("E16.trace", path); err != nil {
		t.Fatal(err)
	}
	replay, err := runOne(s, replayCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The whole report matches but for the one provenance note that names
	// the stream's source.
	withoutSource := func(rep *Report) string {
		var kept []string
		for _, line := range strings.Split(rep.Render(), "\n") {
			if !strings.Contains(line, "stream generated") && !strings.Contains(line, "stream replayed") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if g, r := withoutSource(gen), withoutSource(replay); g != r {
		t.Errorf("replayed report differs from the generated one:\n--- generated\n%s\n--- replayed\n%s", g, r)
	}
	if !strings.Contains(replay.Render(), "stream replayed from "+path) {
		t.Errorf("replayed report does not name its trace file:\n%s", replay.Render())
	}

	// A missing file fails with a descriptive error, not a panic: at Set,
	// naming the key, and on the typed-field path when a shard opens it.
	absent := filepath.Join(t.TempDir(), "absent.json")
	badCfg := cfg
	if err := badCfg.Set("E16.trace", absent); err == nil || !strings.Contains(err.Error(), "E16.trace") {
		t.Errorf("absent trace file accepted by Set (err = %v)", err)
	}
	badCfg.TraceFile = absent
	if _, err := runOne(s, badCfg, 1); err == nil {
		t.Error("absent trace file accepted")
	}
}

// TestDiurnalScalerRestriction: E16.scaler narrows the shard plan to one
// policy; an unknown policy fails at Set, and on the typed-field path
// surfaces the cluster validation error.
func TestDiurnalScalerRestriction(t *testing.T) {
	s, _ := Lookup("E16")
	cfg := Config{Seed: 42}
	if err := cfg.Set("E16.scaler", "predictive"); err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(cfg); got != 1 {
		t.Fatalf("shards = %d, want 1 with Scaler set", got)
	}
	rep, err := runOne(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0][0] != "predictive" {
		t.Fatalf("rows = %v, want the single predictive row", rep.Rows)
	}

	bad := Config{Seed: 42}
	if err := bad.Set("E16.scaler", "psychic"); err == nil || !strings.Contains(err.Error(), "psychic") || !strings.Contains(err.Error(), "E16.scaler") {
		t.Errorf("Set accepted an unknown scaler policy or hid the key (err = %v)", err)
	}
	bad.Scaler = "psychic"
	if _, err := runOne(s, bad, 1); err == nil {
		t.Error("unknown scaler policy accepted")
	} else if !strings.Contains(err.Error(), "psychic") {
		t.Errorf("error should name the policy: %v", err)
	}
}
