package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// deterministic lists the metrics that are pure functions of the seed: two
// invocations must print them identically.
var deterministic = []string{
	"paper_err_pct", "sim_p99_ms", "sim_goodput_rps", "plan_watts",
	"sim.events_per_op", "core.sim_load_us",
	"dram.bytes_per_load", "dram.grants_per_load", "dram.refreshes_per_load",
	"bitstream.builds_per_op", "sched.cache_hit_ratio", "sched.misses_per_op",
	"sched.evictions_per_op", "sched.shed_per_op", "hll.queue_wait_p99_ms",
	"hll.queue_share", "hll.stage_share", "hll.reconfig_share", "hll.compute_share",
	"plan.candidates_per_op", "plan.sims_per_op",
}

// smoke sets a workload up once and runs its minimum number of operations.
func smoke(t *testing.T, name string, seed uint64, traced bool) *result {
	t.Helper()
	spec, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, _, _, err := measure(spec, seed, time.Millisecond, traced, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestEveryMetricPrintedWithUnitAndDeterministic(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			units, mode := e2eUnits, "end-to-end"
			if traced {
				units, mode = layerUnits, "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				a := smoke(t, w.name, DefaultSeed, traced)
				b := smoke(t, w.name, DefaultSeed, traced)
				if len(a.Metrics) != len(units) {
					t.Errorf("%d metrics printed, want %d", len(a.Metrics), len(units))
				}
				for name, unit := range units {
					m, ok := a.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("%s: got %+v, want unit %q", name, m, unit)
					}
				}
				for _, name := range deterministic {
					if ma, ok := a.Metrics[name]; ok && ma != b.Metrics[name] {
						t.Errorf("%s: %v then %v across two invocations", name, ma.Value, b.Metrics[name].Value)
					}
				}
			})
		}
	}
}

func TestHeldOutSeedHasNoFailedOps(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w.name, HeldOutSeed, false) })
	}
}

// TestTamperedReferenceFailsOps shows the reference check is not vacuous:
// with one committed value changed, the operations that produce it fail.
func TestTamperedReferenceFailsOps(t *testing.T) {
	t.Run("reconfig", func(t *testing.T) {
		b, err := newReconfig(DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		rb := b.(*reconfigBench)
		rb.ref.KernelEvents++
		failed := 0
		for i := 0; i < rb.minOps(); i++ {
			if rb.op() != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Fatal("no op failed against a tampered reference")
		}
	})
	t.Run("fleet", func(t *testing.T) {
		b, err := newFleet(DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		fb := b.(*fleetBench)
		fb.ref.Misses++
		if fb.op() == nil {
			t.Fatal("op passed against a tampered reference")
		}
	})
	t.Run("plan", func(t *testing.T) {
		b, err := newPlan(DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		pb := b.(*planBench)
		pb.ref.Chosen = "1× zedboard @100 MHz, round-robin, profile cache"
		if pb.op() == nil {
			t.Fatal("op passed against a tampered reference")
		}
	})
}

func TestCommandPrintsResultLast(t *testing.T) {
	var out bytes.Buffer
	args := []string{"--workload", "reconfig", "--seed", "42", "--seconds", "0.01", "--trace", "0"}
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "digest reconfig seed=42: ") {
		t.Fatalf("no digest line before the result: %q", lines[len(lines)-2])
	}
}

func TestCommandRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the printed
// metrics in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []m                     `json:"end_to_end"`
		PerLayer  []m                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d built", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("declared workload %q not built", w.Name)
		}
	}
	for _, c := range []struct {
		declared []m
		units    map[string]string
	}{{doc.E2E, e2eUnits}, {doc.PerLayer, layerUnits}} {
		if len(c.declared) != len(c.units) {
			t.Errorf("%d metrics declared, %d printed", len(c.declared), len(c.units))
		}
		for _, d := range c.declared {
			if c.units[d.Name] != d.Unit {
				t.Errorf("%s: declared unit %q, printed %q", d.Name, d.Unit, c.units[d.Name])
			}
		}
	}
}
