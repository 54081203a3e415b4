package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReportJSONUnchangedByTracing is the observability acceptance bar at
// the experiment layer: running a fleet scenario with a tracer attached
// must leave the merged report's JSON byte-identical — tracing reads
// simulation state, it never advances the kernel, draws randomness, or
// leaks into the report (SimEvents/WallMS carry json:"-" precisely so the
// profiling tallies stay out of the contract).
func TestReportJSONUnchangedByTracing(t *testing.T) {
	// E15 exercises the densest instrumentation: chaos faults, health
	// probes, failover, autoscaling, repair — all traced.
	s, ok := Lookup("E15")
	if !ok {
		t.Fatal("E15 not registered")
	}
	run := func(tr *obs.Tracer) []byte {
		rep, err := runOne(s, Config{Seed: 42, Obs: tr}, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := run(nil)
	tr := obs.New()
	traced := run(tr)
	if !bytes.Equal(plain, traced) {
		t.Errorf("tracing changed the E15 report JSON:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	// The tracer must actually have collected the scenario: one fleet per
	// router shard, each with spans and fault events.
	chrome := string(tr.Chrome())
	for _, want := range []string{"E15/00", "E15/03", `"name":"fault"`, `"name":"compute"`} {
		if !strings.Contains(chrome, want) {
			t.Errorf("E15 trace missing %s", want)
		}
	}
}

// TestScenarioSimEventsDeterministic: the per-report sim-event counter is
// a pure function of the configuration — same seed, same count, at any
// fleet fan-out — and is non-zero for the simulation scenarios.
func TestScenarioSimEventsDeterministic(t *testing.T) {
	s, ok := Lookup("E14")
	if !ok {
		t.Fatal("E14 not registered")
	}
	// A budget of 4 per shard gives every shard's fleet 4 epoch workers.
	cfg := Config{Seed: 42}
	run := func(budget int) uint64 {
		rep, err := runOne(s, cfg, budget)
		if err != nil {
			t.Fatal(err)
		}
		return rep.SimEvents
	}
	seq := run(1)
	if seq == 0 {
		t.Fatal("E14 reported zero simulation events")
	}
	if par := run(4 * s.Shards(cfg)); par != seq {
		t.Errorf("sim events vary with fleet workers: %d (w=1) vs %d (w=4)", seq, par)
	}
}
