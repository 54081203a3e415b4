package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
)

// TestXplatSweepsAllBoards runs the full E10 scenario: one shard per
// registered platform board, merged into one table. It is the acceptance
// check for the cross-device story — the knee must move with the memory-side
// model.
func TestXplatSweepsAllBoards(t *testing.T) {
	s, ok := Lookup("xplat")
	if !ok || s.ID != "E10" {
		t.Fatalf("xplat alias = %+v, %v", s, ok)
	}
	boards := platform.Boards()
	if len(boards) < 3 {
		t.Fatalf("only %d registered boards; the scenario needs ≥3", len(boards))
	}
	rep, err := runOne(s, Config{Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Every board contributes one row per grid frequency.
	rows := map[string]int{}
	for _, row := range rep.Rows {
		rows[row[0]]++
	}
	wantRows := 0
	for _, b := range boards {
		if rows[b.Name] != len(b.IO.SwitchTableMHz) {
			t.Errorf("%s rows = %d, want %d (its switch table)", b.Name, rows[b.Name], len(b.IO.SwitchTableMHz))
		}
		wantRows += len(b.IO.SwitchTableMHz)
	}
	if len(rep.Rows) != wantRows {
		t.Errorf("total rows = %d, want %d", len(rep.Rows), wantRows)
	}
	if len(rep.Series) != len(boards) {
		t.Errorf("series = %d, want one per board", len(rep.Series))
	}

	// The measured plateau (max operational throughput) must order with the
	// memory models: zybo < zedboard < zc706.
	plateau := map[string]float64{}
	for _, row := range rep.Rows {
		if row[3] == "N/A" {
			continue
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad throughput cell %q: %v", row[3], err)
		}
		if v > plateau[row[0]] {
			plateau[row[0]] = v
		}
	}
	if !(plateau["zybo-z7-10"] < plateau["zedboard"] && plateau["zedboard"] < plateau["zc706"]) {
		t.Errorf("plateau order wrong: %v", plateau)
	}
	// The ZedBoard rows must still show Table I's plateau (≈790 MB/s).
	if p := plateau["zedboard"]; p < 785 || p > 795 {
		t.Errorf("zedboard plateau = %.2f, want ≈790", p)
	}

	// One knee-decomposition note per board plus the summary line.
	if len(rep.Notes) != len(boards)+1 {
		t.Errorf("notes = %d, want %d", len(rep.Notes), len(boards)+1)
	}
	for _, b := range boards {
		found := false
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, b.Name+" (") && strings.Contains(n, "memory model predicts knee") {
				found = true
			}
		}
		if !found {
			t.Errorf("no knee note for %s: %v", b.Name, rep.Notes)
		}
	}
}

// TestXplatHonoursFrequencyOverride keeps the campaign grid override
// working for the cross-platform sweep.
func TestXplatHonoursFrequencyOverride(t *testing.T) {
	s, _ := Lookup("E10")
	rep, err := runOne(s, Config{Seed: 42, Freqs: []float64{100, 200}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(platform.Boards()); len(rep.Rows) != want {
		t.Errorf("override rows = %d, want %d", len(rep.Rows), want)
	}
}

// TestEnvBuildsOnEveryBoard proves the whole Env construction path — boot,
// static configuration, standard bitstream — works for every registered
// profile, not just the default.
func TestEnvBuildsOnEveryBoard(t *testing.T) {
	for _, name := range platform.Names() {
		env, err := NewEnvWith(Config{Seed: 1, Platform: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if env.Platform.Profile.Name != name {
			t.Errorf("env profile = %s, want %s", env.Platform.Profile.Name, name)
		}
		want := env.Platform.Device.RegionFrames(env.Platform.RPs[0])
		if env.Bitstream.Header.Frames != want {
			t.Errorf("%s: bitstream frames = %d, want %d", name, env.Bitstream.Header.Frames, want)
		}
	}
	if _, err := NewEnvWith(Config{Seed: 1, Platform: "not-a-board"}); err == nil {
		t.Error("unknown platform accepted")
	}
}
