package repro_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/pdr"
)

// TestDeterministicReports locks the optimized substrate (pooled event
// kernel, lock-free clocks, flat DMA pump, cached bitstream decode) to the
// seed behavior: the simulation is a deterministic function of its seed, so
// two fresh runs must produce byte-identical reports AND fire exactly the
// same number of kernel events. Any substrate change that reorders events,
// draws the RNG differently, or skips/duplicates work trips this test.
func TestDeterministicReports(t *testing.T) {
	run := func() (*experiments.Report, uint64) {
		env, err := experiments.NewEnvWith(experiments.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// Table I spans the full behavior space: stream-limited and
		// memory-limited throughput, the hang rows (lost interrupt) and the
		// corrupt rows (RNG-driven bit flips).
		rep, err := experiments.TableI(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		return rep, env.Platform.Kernel.Fired()
	}

	rep1, fired1 := run()
	rep2, fired2 := run()

	if fired1 != fired2 {
		t.Errorf("event counts differ across identical runs: %d vs %d", fired1, fired2)
	}
	if !reflect.DeepEqual(rep1.Rows, rep2.Rows) {
		t.Errorf("report rows differ across identical runs:\n%v\nvs\n%v", rep1.Rows, rep2.Rows)
	}
	if r1, r2 := rep1.Render(), rep2.Render(); r1 != r2 {
		t.Errorf("rendered reports differ across identical runs:\n%s\nvs\n%s", r1, r2)
	}

	// Golden cells pin the simulated physics to the values the seed
	// produced (and the paper reports): the substrate may get faster, but
	// the numbers must not move by a digit.
	golden := []struct {
		row, col int
		want     string
	}{
		{0, 0, "100"}, {0, 1, "1325.04"}, {0, 2, "399.05"}, {0, 3, "valid"},
		{3, 1, "675.47"}, {3, 2, "782.80"},
		{5, 1, "669.01"}, {5, 2, "790.37"},
		{6, 1, "N/A no interrupt"}, {6, 3, "valid"},
		{7, 3, "not valid"},
	}
	for _, g := range golden {
		if got := rep1.Rows[g.row][g.col]; got != g.want {
			t.Errorf("Table I cell (%d,%d) = %q, want %q", g.row, g.col, got, g.want)
		}
	}
}

// TestCampaignSuiteParallelDeterminism is the campaign-level contract from
// the Campaign API redesign: the FULL E1–A5 suite run through pdr.Campaign
// on 4 workers must produce byte-identical reports — rendered text, JSON
// and the generated EXPERIMENTS.md document — to a sequential run. Every
// shard owns a fresh kernel and merges by index, so any divergence here
// means a shard leaked state across workers or the merge order raced. The
// document must also equal the committed EXPERIMENTS.md: a change that
// moves any reported number fails here until the file is regenerated with
// `go run ./cmd/pdrbench -md > EXPERIMENTS.md`.
func TestCampaignSuiteParallelDeterminism(t *testing.T) {
	run := func(workers int) *pdr.CampaignResult {
		res, err := pdr.NewCampaign(
			pdr.WithCampaignSeed(42),
			pdr.WithWorkers(workers),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if seq.Units != par.Units {
		t.Errorf("shard plans differ: %d vs %d units (the plan must not depend on workers)", seq.Units, par.Units)
	}
	if a, b := seq.Render(), par.Render(); a != b {
		t.Errorf("parallel suite render differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", a, b)
	}
	a, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("parallel suite JSON differs from sequential")
	}
	if seq.Markdown() != par.Markdown() {
		t.Error("parallel EXPERIMENTS.md differs from sequential")
	}
	committed, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Markdown(); got != string(committed) {
		n, g, w := firstDiff(got, string(committed))
		t.Errorf("the campaign no longer reproduces the committed EXPERIMENTS.md: line %d is\n%s\nbut the file has\n%s", n, g, w)
	}
}

// firstDiff returns the 1-based number of the first line where a and b
// differ, and that line of each ("" past the end).
func firstDiff(a, b string) (n int, la, lb string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		la, lb = "", ""
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb || i >= len(al) || i >= len(bl) {
			return i + 1, la, lb
		}
	}
}

// TestDeterministicSingleLoad repeats the check at the public API: two
// systems with the same seed must report identical load results and fire
// identical event counts.
func TestDeterministicSingleLoad(t *testing.T) {
	run := func() (pdr.Result, uint64) {
		sys, err := pdr.NewSystem(pdr.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SetFrequencyMHz(200); err != nil {
			t.Fatal(err)
		}
		res, err := sys.LoadASP("RP1", "fir128")
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Platform().Kernel.Fired()
	}

	res1, fired1 := run()
	res2, fired2 := run()
	if res1 != res2 {
		t.Errorf("load results differ across identical runs:\n%+v\nvs\n%+v", res1, res2)
	}
	if fired1 != fired2 {
		t.Errorf("event counts differ across identical runs: %d vs %d", fired1, fired2)
	}
	if !res1.IRQReceived || !res1.CRCValid || !res1.DataIntact {
		t.Errorf("200 MHz load should succeed cleanly, got %+v", res1)
	}
}
