package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E15 "chaos": availability, goodput and tail latency per routing policy
// under a seeded fault storm — board crashes, a thermal excursion, and CRC
// read-back glitches — on a warm four-board fleet loaded to half the
// single-board knee per board. The calm baseline is comfortable for every
// policy (E13's 4-board point), so what separates them is purely how they
// absorb faults. The self-healing machinery is on: failover on refused
// connections, outlier ejection on CRC verdicts, thermal throttling, and an
// autoscaler that replaces dead capacity. The headline the storm exposes:
// affinity routing degrades worst — a crashed board's keys funnel onto its
// single ring successor, driving that one board to the saturation knee
// while others idle, and the warm cache the ring spent the run building
// dies with the board — while least-outstanding degrades gracefully because
// queue depth already encodes who is struggling.
//
// Shard plan: one shard per routing policy, every shard replaying the same
// arrival stream and the same storm, so the policies face identical faults.

const (
	chaosTitle = "chaos: availability and tail latency per routing policy under a seeded fault storm"

	// The stream: 384 requests at E13's 1600 req/s — 400 req/s per board on
	// the full fleet (comfortable), ~800 req/s on a board carrying a dead
	// neighbour's keys (the knee) — spanning a 240 ms horizon.
	chaosRequests   = 384
	chaosRatePerSec = fleetRatePerSec

	// The storm (counts overridable via Config.Chaos*): two board outages,
	// one thermal excursion into the throttle regime, two SEU bursts against
	// resident images — all inside the stream horizon.
	chaosCrashes    = 2
	chaosExcursions = 1
	chaosGlitches   = 4

	chaosOutage  = 60 * sim.Millisecond
	chaosDwell   = 50 * sim.Millisecond
	chaosTempC   = 85
	chaosFrames  = 2
	chaosHorizon = 240 * sim.Millisecond
)

// chaosCount applies a Config override: 0 keeps the default, negative
// disables the fault class.
func chaosCount(override, def int) int {
	switch {
	case override > 0:
		return override
	case override < 0:
		return 0
	}
	return def
}

// chaosStorm shapes the campaign's fault storm.
func chaosStorm(cfg Config) chaos.Config {
	return chaos.Config{
		Seed:           cfg.Seed ^ 0xE15C,
		Horizon:        chaosHorizon,
		Boards:         routeFleetSize,
		Crashes:        chaosCount(cfg.ChaosCrashes, chaosCrashes),
		Outage:         chaosOutage,
		Excursions:     chaosCount(cfg.ChaosExcursions, chaosExcursions),
		ExcursionTempC: chaosTempC,
		Dwell:          chaosDwell,
		Glitches:       chaosCount(cfg.ChaosGlitches, chaosGlitches),
		GlitchFrames:   chaosFrames,
	}
}

// chaosStream is E15's shared arrival stream: the E14 popularity shape on
// its own seed, so the chaos scenario never perturbs the calm one.
func chaosStream(cfg Config) (workload.Trace, []cluster.BoardSpec, error) {
	boards := make([]cluster.BoardSpec, routeFleetSize)
	for i := range boards {
		boards[i] = cluster.BoardSpec{Platform: cfg.Platform}
	}
	rps, err := cluster.CommonRPs(boards)
	if err != nil {
		return nil, nil, err
	}
	spec := workload.ArrivalSpec{
		RatePerSec: chaosRatePerSec,
		Skew:       routeSkew,
		Tenants:    routeTenants,
		Deadline:   serveDeadline,
	}
	tr, err := spec.Generate(cfg.Seed^0x0E15, chaosRequests, rps, satASPs)
	return tr, boards, err
}

func chaosShards(Config) int { return len(cluster.RouterNames()) }

var chaosHeader = []string{
	"router", "arrivals", "completed", "unroutable", "lost", "failed over",
	"repairs", "availability", "goodput [req/s]", "p99 [ms]", "deadline misses",
}

func chaosShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	names := cluster.RouterNames()
	if shard < 0 || shard >= len(names) {
		return nil, fmt.Errorf("experiments: chaos shard %d out of range", shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	router, err := cluster.RouterByName(names[shard])
	if err != nil {
		return nil, err
	}
	tr, boards, err := chaosStream(src.Cfg)
	if err != nil {
		return nil, err
	}
	schedule, err := chaosStorm(src.Cfg).Schedule()
	if err != nil {
		return nil, err
	}
	f, err := cluster.New(cluster.FleetConfig{
		Boards:  boards,
		Seed:    src.Cfg.Seed,
		FreqMHz: serveFreqMHz,
		Router:  router,
		Workers: src.Cfg.Workers,
		Trace:   obsFleet(src.Cfg, "E15", shard, router.Name()),
		// The scaler's job here is repair, not capacity: it starts one short
		// of full and must re-activate the spare when a crash empties a slot.
		Autoscaler: &cluster.AutoscalerConfig{
			Window:  25 * sim.Millisecond,
			Min:     routeFleetSize - 1,
			Max:     routeFleetSize,
			ShedHi:  0.01,
			P99HiUS: serveDeadline.Microseconds(),
			ShedLo:  -1, // never shrink mid-storm
			P99LoUS: 0,
		},
		Chaos: &cluster.ChaosConfig{Schedule: schedule},
		Service: cluster.ServiceTemplate{
			QueueCap: serveQueueCap,
			// Warm caches: the calm fleet runs hit-only (E13), so every
			// stall the storm causes is the storm's doing — and a crash
			// erases exactly the warmth the run started with.
			Prewarm: satASPs,
			Repair:  "scrub",
			Images:  src.images,
		},
	})
	if err != nil {
		return nil, err
	}
	st, err := f.Serve(tr)
	if err != nil {
		return nil, err
	}
	agg := st.Aggregate
	rep := &Report{ID: "E15", Title: chaosTitle, SimEvents: st.KernelEvents}
	rep.Rows = append(rep.Rows, []string{
		router.Name(),
		strconv.Itoa(st.Arrivals), strconv.Itoa(agg.Completed),
		strconv.Itoa(st.Unroutable), strconv.Itoa(agg.Lost), strconv.Itoa(st.FailedOver),
		strconv.Itoa(agg.Repairs),
		fmt.Sprintf("%.1f%%", 100*st.Availability()),
		f0(st.GoodputPerSec()),
		ms(agg.SojournUS.Quantile(0.99)),
		strconv.Itoa(agg.DeadlineMisses),
	})
	series := sim.Series{Name: "e15_" + router.Name(), XLabel: "metric_index", YLabel: "value"}
	series.Append(0, st.Availability())
	series.Append(1, st.GoodputPerSec())
	series.Append(2, agg.SojournUS.Quantile(0.99))
	rep.Series = append(rep.Series, series)
	return rep, nil
}

func chaosMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E15", chaosTitle, chaosHeader, parts)
	aff := rep.points("e15_affinity")
	jsq := rep.points("e15_least-outstanding")
	if len(aff) == 3 && len(jsq) == 3 && aff[2].Y > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"under the storm, affinity routing degrades worst — its cache locality dies with the crashed board: goodput %.0f vs least-outstanding's %.0f req/s, p99 %.1f vs %.1f ms — queue depth already encodes board health, consistent hashing does not",
			aff[1].Y, jsq[1].Y, aff[2].Y/1000, jsq[2].Y/1000))
	}
	storm := chaosStorm(cfg)
	schedule, err := storm.Schedule()
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"storm (seeded, identical for every policy): %d board outages of %v, %d thermal excursions to %.0f °C, %d CRC glitches of %d frames across a %v horizon — %d events total",
		storm.Crashes, chaosOutage, storm.Excursions, storm.ExcursionTempC,
		storm.Glitches, storm.GlitchFrames, chaosHorizon, len(schedule)))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"self-healing on: connection-refused failover, CRC-verdict outlier ejection, thermal throttling to nominal, scrub repair, autoscaler replacing dead capacity (bounds %d…%d); %d req at %d req/s, Zipf(%.1f) popularity, warm caches",
		routeFleetSize-1, routeFleetSize, chaosRequests, chaosRatePerSec, routeSkew))
	return rep, nil
}
