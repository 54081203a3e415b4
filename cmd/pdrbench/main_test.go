package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func run(t *testing.T, opts options) string {
	t.Helper()
	var buf bytes.Buffer
	if err := realMain(context.Background(), &buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSingleScenarioByID(t *testing.T) {
	out := run(t, options{run: "E6", seed: 42, parallel: 1})
	if !strings.Contains(out, "E6 — Table III") {
		t.Errorf("output missing E6 header:\n%s", out)
	}
}

func TestLegacyAliasStillWorks(t *testing.T) {
	out := run(t, options{run: "tableIII", seed: 42, parallel: 1})
	if !strings.Contains(out, "E6 — Table III") {
		t.Errorf("alias output missing E6 header:\n%s", out)
	}
}

func TestUnknownScenario(t *testing.T) {
	err := realMain(context.Background(), &bytes.Buffer{}, options{run: "E42", seed: 42, parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario accepted (err = %v)", err)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := run(t, options{run: "E1,E8,A1", seed: 42, parallel: 1})
	par := run(t, options{run: "E1,E8,A1", seed: 42, parallel: 4})
	if seq != par {
		t.Errorf("parallel output diverges from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

func TestJSONOutput(t *testing.T) {
	out := run(t, options{run: "E8", seed: 42, parallel: 1, jsonOut: true})
	var reports []map[string]any
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0]["id"] != "E8" {
		t.Errorf("json reports = %v", reports)
	}
}

func TestMarkdownOutput(t *testing.T) {
	out := run(t, options{run: "E8", seed: 42, parallel: 1, mdOut: true})
	if !strings.HasPrefix(out, "<!-- Generated by") {
		t.Errorf("markdown missing generation banner:\n%.80s", out)
	}
	if !strings.Contains(out, "## E8 —") {
		t.Errorf("markdown missing E8 section:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	run(t, options{run: "E2", seed: 42, parallel: 2, csvDir: dir})
	data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "frequency_mhz,throughput_mbs\n") {
		t.Errorf("csv = %q…", data[:40])
	}
}

func TestListScenarios(t *testing.T) {
	out := run(t, options{list: true})
	for _, want := range []string{"E1", "E9", "E10", "A5", "tableI", "poisson", "xplat", "saturate", "sched"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario list missing %q:\n%s", want, out)
		}
	}
	// Shard-count and platform columns: the cross-device scenarios span the
	// board registry, single-platform ones say "campaign".
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "shards") || !strings.Contains(lines[0], "platforms") {
		t.Errorf("list header missing shard/platform columns: %q", lines[0])
	}
	var e11 string
	for _, l := range lines {
		if strings.HasPrefix(l, "E11") {
			e11 = l
		}
	}
	if !strings.Contains(e11, "zedboard,zybo-z7-10,zc706") || !strings.Contains(e11, "9") {
		t.Errorf("E11 row missing platform span or shard count: %q", e11)
	}
	if !strings.Contains(out, "campaign") {
		t.Errorf("single-platform scenarios should read \"campaign\":\n%s", out)
	}
	// The platform registry is part of the listing.
	for _, want := range []string{"zedboard", "zybo-z7-10", "zc706", "xc7z045"} {
		if !strings.Contains(out, want) {
			t.Errorf("platform list missing %q:\n%s", want, out)
		}
	}
}

// TestListJSONGolden pins `-list -json` byte for byte: the machine-readable
// registry is an interface other tooling parses, so any drift (a renamed
// scenario, a shard-plan change, a new platform) must be a conscious,
// committed decision. Regenerate with:
//
//	go run ./cmd/pdrbench -list -json > cmd/pdrbench/testdata/list.json
func TestListJSONGolden(t *testing.T) {
	out := run(t, options{list: true, jsonOut: true})
	want, err := os.ReadFile(filepath.Join("testdata", "list.json"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-list -json drifted from testdata/list.json (regenerate if intended):\n--- got ---\n%s", out)
	}
	// And it must stay parseable with the documented shape.
	var l struct {
		Scenarios []struct {
			ID        string   `json:"id"`
			Shards    int      `json:"shards"`
			Platforms []string `json:"platforms"`
		} `json:"scenarios"`
		Platforms []struct {
			Name string `json:"name"`
		} `json:"platforms"`
	}
	if err := json.Unmarshal([]byte(out), &l); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	ids := map[string]int{}
	for _, s := range l.Scenarios {
		ids[s.ID] = s.Shards
	}
	if ids["E13"] != 10 || ids["E14"] != 4 || ids["E15"] != 4 {
		t.Errorf("fleet scenario shard counts = E13:%d E14:%d E15:%d, want 10, 4 and 4", ids["E13"], ids["E14"], ids["E15"])
	}
	if len(l.Platforms) != 5 {
		t.Errorf("platform registry has %d entries, want 5", len(l.Platforms))
	}
}

func TestFleetAndRouterFlags(t *testing.T) {
	// A reduced fleet grid reshapes E13's shard plan and shows up in the
	// rows; an unknown router must fail through the cluster registry.
	out := run(t, options{run: "E13", seed: 42, parallel: 1, sets: []string{"E13.fleet=1", "E13.router=round-robin"}})
	if !strings.Contains(out, "E13 —") || !strings.Contains(out, "round-robin") {
		t.Errorf("output missing E13 header or router column:\n%s", out)
	}
	if strings.Contains(out, "2× zedboard") {
		t.Errorf("E13.fleet=1 should drop larger fleet points:\n%s", out)
	}
	if err := realMain(context.Background(), &bytes.Buffer{}, options{run: "E13", seed: 42, parallel: 1, sets: []string{"E13.router=nope"}}); err == nil ||
		!strings.Contains(err.Error(), "E13.router") || !strings.Contains(err.Error(), "round-robin|") {
		t.Errorf("unknown router accepted (err = %v)", err)
	}
	if err := realMain(context.Background(), &bytes.Buffer{}, options{run: "E13", seed: 42, parallel: 1, sets: []string{"E13.fleet=0"}}); err == nil || !strings.Contains(err.Error(), "E13.fleet") {
		t.Errorf("invalid fleet size accepted (err = %v)", err)
	}
	if err := realMain(context.Background(), &bytes.Buffer{}, options{run: "E13", seed: 42, parallel: 1, sets: []string{"E13.fleet"}}); err == nil || !strings.Contains(err.Error(), "key=value") {
		t.Errorf("-set without a value accepted (err = %v)", err)
	}
}

func TestChaosStormFlags(t *testing.T) {
	// Negative counts remove that fault class from the storm: with every
	// class removed, E15 runs fault-free — nothing lost, nothing failed
	// over, 100% availability across every routing policy.
	calm := run(t, options{run: "E15", seed: 42, parallel: 1,
		sets: []string{"E15.crashes=-1", "E15.excursions=-1", "E15.glitches=-1"}})
	if !strings.Contains(calm, "E15 —") || !strings.Contains(calm, "0 events total") {
		t.Errorf("disabled storm should report 0 events:\n%s", calm)
	}
	// The storm parameters reshape the schedule note deterministically.
	storm := run(t, options{run: "E15", seed: 42, parallel: 1, sets: []string{"E15.crashes=3"}})
	if !strings.Contains(storm, "3 board outages") {
		t.Errorf("E15.crashes=3 not reflected in the storm note:\n%s", storm)
	}
	if calm == storm {
		t.Error("storm override produced identical output to the calm run")
	}
}

func TestPlatformFlag(t *testing.T) {
	// E8 is analytic and cheap; -platform must select the profile's board
	// for the campaign (an unknown one must fail through the registry).
	out := run(t, options{run: "E8", seed: 42, parallel: 1, platform: "zybo-z7-10"})
	if !strings.Contains(out, "E8 —") {
		t.Errorf("output missing E8 header:\n%s", out)
	}
	err := realMain(context.Background(), &bytes.Buffer{}, options{run: "E8", seed: 42, parallel: 1, platform: "nope"})
	if err == nil || !strings.Contains(err.Error(), `unknown platform "nope"`) {
		t.Errorf("unknown platform accepted (err = %v)", err)
	}
}

func TestTraceEventsAndMetricsFlags(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "e14.trace.json")
	metricsJSON := filepath.Join(dir, "e14.metrics.json")
	metricsCSV := filepath.Join(dir, "e14.metrics.csv")
	out1 := run(t, options{run: "E14", seed: 42, parallel: 1,
		traceEvents: traceFile, metricsOut: metricsJSON})
	trace1, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace1), `"traceEvents":[`) || !strings.Contains(string(trace1), "E14/00") {
		t.Errorf("trace-events file malformed:\n%.200s", trace1)
	}
	m1, err := os.ReadFile(metricsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m1), `"schema": 1`) {
		t.Errorf("metrics file malformed:\n%.200s", m1)
	}
	// Stdout must be unchanged by tracing, and both export files must be
	// byte-identical at a budget above E14's 4 shards, so each shard's
	// fleet epochs fan out over 2 goroutines.
	trace2 := filepath.Join(dir, "e14b.trace.json")
	out8 := run(t, options{run: "E14", seed: 42, parallel: 8,
		traceEvents: trace2, metricsOut: metricsCSV})
	if out1 != out8 {
		t.Error("stdout differs between worker budgets")
	}
	t2, err := os.ReadFile(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace1, t2) {
		t.Error("trace-events files differ between worker budgets")
	}
	csv, err := os.ReadFile(metricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "fleet,series,unit,t_us,value\n") {
		t.Errorf("metrics .csv extension did not select CSV:\n%.120s", csv)
	}
	plain := run(t, options{run: "E14", seed: 42, parallel: 1})
	if plain != out1 {
		t.Error("stdout differs between traced and untraced runs")
	}
}

// TestCPUProfileFlag: -cpuprofile leaves a gzip-compressed pprof file,
// and an unwritable path fails the run naming the flag.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	run(t, options{run: "E8", seed: 42, parallel: 1, cpuProfile: path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("profile is not a non-empty gzip file (%d bytes)", len(data))
	}
	err = realMain(context.Background(), &bytes.Buffer{},
		options{run: "E8", seed: 42, parallel: 1, cpuProfile: filepath.Join(t.TempDir(), "absent", "cpu.out")})
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("unwritable profile path accepted (err = %v)", err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := realMain(ctx, &bytes.Buffer{}, options{run: "E1", seed: 42, parallel: 1}); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestTraceOutFollowsE16Trace: -trace-out writes the generated E16 stream,
// or, with E16.trace set, re-exports the replayed one byte for byte.
func TestTraceOutFollowsE16Trace(t *testing.T) {
	dir := t.TempDir()
	day := filepath.Join(dir, "day.json")
	day2 := filepath.Join(dir, "day2.json")
	run(t, options{run: "E8", seed: 42, parallel: 1, traceOut: day})
	run(t, options{run: "E8", seed: 42, parallel: 1, traceOut: day2, sets: []string{"E16.trace=" + day}})
	a, err := os.ReadFile(day)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(day2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("re-exported E16.trace replay differs from the generated stream")
	}
}
