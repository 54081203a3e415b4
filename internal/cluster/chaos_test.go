package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosTrace is the shared stream for the chaos tests: fast enough to keep
// boards busy across the fault windows, deadline-bearing so goodput and
// hedging have something to measure.
func chaosTrace(t *testing.T, f *Fleet, n int) workload.Trace {
	t.Helper()
	spec := workload.ArrivalSpec{
		RatePerSec: 600,
		Skew:       1.1,
		Deadline:   20 * sim.Millisecond,
		Tenants:    []string{"alpha", "beta"},
	}
	return mustTrace(t, spec, 17, n, f.RPNames())
}

func TestFleetSurvivesBoardCrash(t *testing.T) {
	build := func() *Fleet {
		return mustFleet(t, FleetConfig{
			Boards:  zedboards(3),
			Seed:    42,
			FreqMHz: 200,
			Router:  LeastOutstanding(),
			Chaos: &ChaosConfig{
				Schedule: []chaos.Event{
					{At: 40 * sim.Millisecond, Board: 0, Kind: chaos.BoardDown},
				},
				// Probes far beyond the stream: the fleet may only learn of
				// the crash the way a front-end does, from refused
				// connections on the routing path.
				ProbeEvery: sim.Second,
			},
			// Cold caches: staging from SD keeps queues non-empty, so the
			// crash has in-flight and queued work to destroy.
			Service: ServiceTemplate{},
		})
	}
	f := build()
	st, err := f.Serve(chaosTrace(t, f, 144))
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 144 {
		t.Errorf("arrivals = %d, want 144", st.Arrivals)
	}
	// The crash drops whatever board 0 held in flight and in queue…
	if st.Aggregate.Lost == 0 {
		t.Error("crash mid-stream lost nothing: expected in-flight work dropped")
	}
	// …and refused connections fail over to the survivors.
	if st.FailedOver == 0 {
		t.Error("no failover recorded against a crashed board")
	}
	if av := st.Availability(); av >= 1 || av < 0.5 {
		t.Errorf("availability = %.3f, want in [0.5, 1) under a single-board outage", av)
	}
	// The survivors keep completing work through the outage.
	if st.Aggregate.Completed == 0 {
		t.Error("fleet completed nothing under a one-board outage")
	}
	// Everything is accounted: nothing silently vanishes.
	agg := st.Aggregate
	if got := agg.Completed + agg.Shed + agg.Failures + agg.Lost + st.Unroutable; got < 144 {
		t.Errorf("accounted outcomes %d < 144 arrivals", got)
	}
	// Chaos runs stay pure functions of the config.
	f2 := build()
	st2, err := f2.Serve(chaosTrace(t, f2, 144))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Error("identical chaos runs diverge")
	}
}

func TestFleetProbesDetectRecovery(t *testing.T) {
	// Board 0 is down before the stream starts and comes back mid-run: only
	// the periodic probes can notice, and everything board 0 completes it
	// completed after recovery.
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(2),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Chaos: &ChaosConfig{
			Schedule: []chaos.Event{
				{At: sim.Microsecond, Board: 0, Kind: chaos.BoardDown},
				{At: 60 * sim.Millisecond, Board: 0, Kind: chaos.BoardUp},
			},
			ProbeEvery: 20 * sim.Millisecond,
		},
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	st, err := f.Serve(chaosTrace(t, f, 144))
	if err != nil {
		t.Fatal(err)
	}
	if st.Boards[0].Stats.Completed == 0 {
		t.Error("recovered board never served again (probe-based recovery broken)")
	}
	if st.Boards[1].Stats.Completed == 0 {
		t.Error("survivor board completed nothing")
	}
}

func TestFleetRepairsCRCGlitch(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(2),
		Seed:    42,
		FreqMHz: 200,
		Router:  RoundRobin(),
		Chaos: &ChaosConfig{
			Schedule: []chaos.Event{
				{At: 30 * sim.Millisecond, Board: 0, Kind: chaos.CRCGlitch, Frames: 2},
			},
		},
		Service: ServiceTemplate{Prewarm: []string{"fir128"}, Repair: "scrub"},
	})
	// A single-image stream: every post-glitch dispatch on the upset RP is a
	// cache hit, so the alarm must be cleared by an explicit scrub rather
	// than incidentally by the next reconfiguration.
	spec := workload.ArrivalSpec{RatePerSec: 600, Deadline: 20 * sim.Millisecond}
	tr, err := spec.Generate(17, 96, f.RPNames(), []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggregate.CRCAlarms == 0 {
		t.Error("scheduled CRC glitch raised no alarm")
	}
	if st.Aggregate.Repairs == 0 {
		t.Error("CRC alarm was never repaired")
	}
	if st.Aggregate.RepairTime <= 0 {
		t.Error("repairs took no time")
	}
	// A glitch is not an outage: the board keeps serving after the scrub.
	if st.Boards[0].Stats.Completed == 0 {
		t.Error("glitched board stopped serving")
	}
}

func TestFleetAutoscalerReplacesCrashedBoard(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Autoscaler: &AutoscalerConfig{
			Window: 20 * sim.Millisecond,
			Min:    2, Max: 3,
			ShedHi: 0.99, P99HiUS: 1e9, ShedLo: -1, P99LoUS: 0, // only the dead-capacity clause can fire
		},
		Chaos: &ChaosConfig{
			Schedule: []chaos.Event{
				{At: 30 * sim.Millisecond, Board: 0, Kind: chaos.BoardDown},
			},
		},
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	st, err := f.Serve(chaosTrace(t, f, 96))
	if err != nil {
		t.Fatal(err)
	}
	replaced := false
	for _, ev := range st.ScaleEvents {
		if strings.HasPrefix(ev.Reason, "replacing dead capacity") {
			replaced = true
		}
	}
	if !replaced {
		t.Errorf("no dead-capacity replacement in scale events: %+v", st.ScaleEvents)
	}
	if st.FinalActive != 3 {
		t.Errorf("final active = %d, want 3 (replacement board activated)", st.FinalActive)
	}
	// The replacement board absorbed traffic.
	if st.Boards[2].Assigned == 0 {
		t.Error("replacement board received no traffic")
	}
}

func TestFleetHedgesDeadlineRequests(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Router:  RoundRobin(),
		Chaos:   &ChaosConfig{Hedge: true},
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	st, err := f.Serve(chaosTrace(t, f, 48))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hedged == 0 {
		t.Error("deadline-bearing stream with hedging on issued no hedges")
	}
	// Hedges are duplicate offers on top of the logical arrivals.
	if st.Aggregate.Offered != st.Arrivals+st.Hedged {
		t.Errorf("offered %d ≠ arrivals %d + hedged %d",
			st.Aggregate.Offered, st.Arrivals, st.Hedged)
	}
}

func TestFleetThermalExcursionIsNotAnOutage(t *testing.T) {
	// An 85 °C excursion throttles the board (ejected as degraded, over-clock
	// derated) but never corrupts anything: no alarms, no losses, and the
	// board serves again once the die cools.
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(2),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Chaos: &ChaosConfig{
			Schedule: []chaos.Event{
				{At: 30 * sim.Millisecond, Board: 0, Kind: chaos.HeatOn, TempC: 85},
				{At: 90 * sim.Millisecond, Board: 0, Kind: chaos.HeatOff},
			},
		},
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	st, err := f.Serve(chaosTrace(t, f, 96))
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggregate.CRCAlarms != 0 || st.Aggregate.Lost != 0 {
		t.Errorf("thermal excursion corrupted state: %d alarms, %d lost",
			st.Aggregate.CRCAlarms, st.Aggregate.Lost)
	}
	if st.Boards[0].Stats.Completed == 0 {
		t.Error("throttled board never completed anything")
	}
}

func TestFleetChaosConfigErrors(t *testing.T) {
	if _, err := New(FleetConfig{
		Boards: zedboards(2),
		Chaos: &ChaosConfig{Schedule: []chaos.Event{
			{At: sim.Millisecond, Board: 5, Kind: chaos.BoardDown},
		}},
	}); err == nil {
		t.Error("chaos event beyond the fleet must fail")
	}
	if _, err := New(FleetConfig{
		Boards: zedboards(2),
		Chaos: &ChaosConfig{Schedule: []chaos.Event{
			{At: 2 * sim.Millisecond, Board: 0, Kind: chaos.BoardDown},
			{At: sim.Millisecond, Board: 0, Kind: chaos.BoardUp},
		}},
	}); err == nil {
		t.Error("unsorted chaos schedule must fail")
	}
	if _, err := New(FleetConfig{
		Boards: zedboards(2),
		Chaos:  &ChaosConfig{ProbeEvery: -sim.Millisecond},
	}); err == nil {
		t.Error("negative probe interval must fail")
	}
}

// A nil Chaos config must leave the historical fault-free path untouched,
// bit for bit — the chaos machinery may not perturb a single counter.
func TestFleetNilChaosMatchesBaseline(t *testing.T) {
	run := func(withEmptyChaos bool) *FleetStats {
		cfg := FleetConfig{
			Boards:  zedboards(2),
			Seed:    42,
			FreqMHz: 200,
			Router:  LeastOutstanding(),
			Service: ServiceTemplate{Prewarm: testASPs},
		}
		if withEmptyChaos {
			cfg.Chaos = &ChaosConfig{} // machinery on, no faults scheduled
		}
		f := mustFleet(t, cfg)
		st, err := f.Serve(chaosTrace(t, f, 72))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base, empty := run(false), run(true)
	// An empty storm adds health bookkeeping but must not change a single
	// service-level number.
	if !reflect.DeepEqual(base.Aggregate, empty.Aggregate) {
		t.Errorf("empty chaos config changed aggregate stats:\n%+v\nvs\n%+v",
			base.Aggregate, empty.Aggregate)
	}
	if !reflect.DeepEqual(base.Boards, empty.Boards) {
		t.Error("empty chaos config changed per-board stats")
	}
}
