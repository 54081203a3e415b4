package pdr_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/pdr"
)

// TestSystemServeWithTracer: the single-board service path records spans
// under "serve/NN", does not perturb ServiceStats, and the public
// re-export helpers round-trip the files byte for byte.
func TestSystemServeWithTracer(t *testing.T) {
	serve := func(tracer *pdr.Tracer) pdr.ServiceStats {
		sys, err := pdr.NewSystem(pdr.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := sys.OpenTrace(pdr.ArrivalSpec{
			RatePerSec: 700,
			Deadline:   20 * sim.Millisecond,
		}, 7, 48, fleetASPs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Serve(stream, pdr.ServeOptions{Service: pdr.ServiceConfig{Prewarm: fleetASPs[:2]}, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := serve(nil)
	tracer := pdr.NewTracer()
	traced := serve(tracer)
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracer changed ServiceStats")
	}
	chrome := tracer.Chrome()
	s := string(chrome)
	for _, want := range []string{"serve/00", `"name":"queue"`, `"name":"compute"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serve trace missing %s", want)
		}
	}
	again, err := pdr.ReexportTraceEvents(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome, again) {
		t.Error("trace-events export does not round-trip through the public API")
	}
	mj, err := tracer.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	againM, err := pdr.ReexportMetrics(mj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mj, againM) {
		t.Error("metrics export does not round-trip through the public API")
	}
}

// TestFleetServeWithTracer: each Fleet.Serve registers its own keyed
// trace, stats stay byte-identical to the untraced run, and board gauges
// (watts, queue depth) appear in the metrics.
func TestFleetServeWithTracer(t *testing.T) {
	build := func(tracer *pdr.Tracer) (*pdr.Fleet, pdr.Trace) {
		f, err := pdr.NewFleet(pdr.FleetOptions{
			Boards:  []string{"zedboard", "zedboard"},
			Seed:    42,
			Router:  "least-outstanding",
			Service: pdr.ServiceConfig{Prewarm: fleetASPs},
			Tracer:  tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := f.OpenTrace(pdr.ArrivalSpec{
			RatePerSec: 700,
			Deadline:   20 * sim.Millisecond,
		}, 7, 64, fleetASPs)
		if err != nil {
			t.Fatal(err)
		}
		return f, stream
	}
	fPlain, stream := build(nil)
	plain, err := fPlain.Serve(stream)
	if err != nil {
		t.Fatal(err)
	}
	tracer := pdr.NewTracer()
	fTraced, stream2 := build(tracer)
	traced, err := fTraced.Serve(stream2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("tracer changed FleetStats")
	}
	// A second Serve registers the next key.
	if _, err := fTraced.Serve(stream2); err != nil {
		t.Fatal(err)
	}
	s := string(tracer.Chrome())
	for _, want := range []string{"fleet/00", "fleet/01", "2 boards, least-outstanding"} {
		if !strings.Contains(s, want) {
			t.Errorf("fleet trace missing %s", want)
		}
	}
	mj, err := tracer.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"board00.watts", "board01.queued", "fleet.active_boards"} {
		if !strings.Contains(string(mj), want) {
			t.Errorf("fleet metrics missing %s", want)
		}
	}
}

// TestCampaignWithTracer: the campaign option threads the tracer through
// to the fleet scenarios, reports stay byte-identical, and the pool /
// elapsed profiling fields are populated.
func TestCampaignWithTracer(t *testing.T) {
	run := func(tracer *pdr.Tracer) *pdr.CampaignResult {
		opts := []pdr.CampaignOption{
			pdr.WithCampaignSeed(42),
			pdr.WithScenarios("E14"),
			pdr.WithWorkers(2),
		}
		if tracer != nil {
			opts = append(opts, pdr.WithTracer(tracer))
		}
		res, err := pdr.NewCampaign(opts...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	tracer := pdr.NewTracer()
	traced := run(tracer)
	pj, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	tj, err := traced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, tj) {
		t.Error("tracer changed the campaign's report JSON")
	}
	s := string(tracer.Chrome())
	// E14 runs one shard per router; each registers its own keyed fleet.
	for _, want := range []string{"E14/00", "E14/03"} {
		if !strings.Contains(s, want) {
			t.Errorf("campaign trace missing %s", want)
		}
	}
	if traced.Elapsed <= 0 {
		t.Error("campaign elapsed time not recorded")
	}
	if len(traced.Pool) == 0 {
		t.Error("campaign pool utilization not recorded")
	}
	var tasks int64
	for _, wc := range traced.Pool {
		tasks += wc.Tasks
	}
	if int(tasks) != traced.Units {
		t.Errorf("pool task tally %d ≠ campaign units %d", tasks, traced.Units)
	}
	if traced.Reports[0].SimEvents == 0 {
		t.Error("campaign report missing sim-event tally")
	}
}
