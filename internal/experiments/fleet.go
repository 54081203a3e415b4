package experiments

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds the fleet-layer scenarios built on internal/cluster —
// the capacity-planning questions above one board:
//
//   - E13 "scaleout": p99 and goodput versus fleet size at a fixed offered
//     load above one board's saturation knee, for a homogeneous ZedBoard
//     fleet and a mixed zedboard/zybo/zc706 fleet, plus one autoscaled
//     point per composition (bounds 1…max size) showing where the reactive
//     scaler settles.
//   - E14 "route": routing policy × skewed image/tenant popularity on a
//     four-board fleet whose per-board caches cannot hold the working set
//     — the regime where bitstream-affinity routing keeps each board's
//     cache warm while oblivious policies thrash every cache at once.
//
// Shard plans: E13 one shard per (composition, fleet point), E14 one shard
// per routing policy. Every shard builds its own fleet (each board a fresh
// platform whose RNG stream derives from the campaign seed and board
// index), so shards stay pure functions of the campaign configuration.

const (
	scaleTitle = "scale-out: goodput and p99 vs fleet size above the single-board knee"
	routeTitle = "routing: policy × skewed image popularity on a cache-constrained fleet"

	// fleetRequests is the stream length per fleet point; fleetRatePerSec
	// sits above the cached single-board knee E11 locates (~800 req/s on
	// the ZedBoard), so one board must shed or miss deadlines and the
	// headroom has to come from the fleet.
	fleetRequests   = 192
	fleetRatePerSec = 1600

	// E14's offered load, popularity skew and per-board cache budget: five
	// images per board against a 16-image working set, so no single cache
	// can hold everything — routing decides what stays warm.
	routeRatePerSec  = 400
	routeSkew        = 1.1
	routeCacheImages = 5
	routeFleetSize   = 4
)

var routeTenants = []string{"alpha", "beta", "gamma"}

// fleetComposition is one E13 fleet build rule.
type fleetComposition struct {
	name string
	// cycle is the platform sequence boards are drawn from (board i runs
	// cycle[i % len(cycle)]).
	cycle []string
}

func fleetCompositions() []fleetComposition {
	return []fleetComposition{
		{name: "zedboard", cycle: []string{"zedboard"}},
		{name: "mixed", cycle: []string{"zedboard", "zybo-z7-10", "zc706"}},
	}
}

// fleetSizes is the E13 fleet-size axis.
func fleetSizes(cfg Config) []int {
	if len(cfg.FleetSizes) > 0 {
		return cfg.FleetSizes
	}
	return []int{1, 2, 4, 8}
}

// fleetRouterName resolves E13's routing policy.
func fleetRouterName(cfg Config) string {
	if cfg.Router != "" {
		return cfg.Router
	}
	return "least-outstanding"
}

// fleetBoards builds a composition's board list at one size.
func fleetBoards(comp fleetComposition, size int) []cluster.BoardSpec {
	out := make([]cluster.BoardSpec, size)
	for i := range out {
		out[i] = cluster.BoardSpec{Platform: comp.cycle[i%len(comp.cycle)]}
	}
	return out
}

// fleetRPs is the composition's servable RP set: the intersection over the
// whole platform cycle, independent of fleet size, so every size of one
// composition replays the same stream.
func fleetRPs(comp fleetComposition) ([]string, error) {
	return cluster.CommonRPs(fleetBoards(comp, len(comp.cycle)))
}

// scaleSeed derives a composition's arrival-stream seed.
func scaleSeed(cfg Config, comp string) uint64 {
	h := uint64(0x5CA1E)
	for _, c := range comp {
		h = h*31 + uint64(c)
	}
	return cfg.Seed ^ h
}

// fleetPoints is the number of measurement points per composition: every
// fixed size plus the autoscaled point.
func fleetPoints(cfg Config) int { return len(fleetSizes(cfg)) + 1 }

func scaleShards(cfg Config) int { return len(fleetCompositions()) * fleetPoints(cfg) }

var scaleHeader = []string{
	"fleet", "boards", "router", "offered", "completed", "shed",
	"goodput [req/s]", "hit ratio", "p50 [ms]", "p95 [ms]", "p99 [ms]",
	"deadline misses", "active peak/final",
}

// scalePoint serves the composition's stream on one fleet build.
func scalePoint(src *Boards, comp fleetComposition, size int, auto bool, ft *obs.FleetTrace) (*cluster.FleetStats, error) {
	cfg := src.Cfg
	if size < 1 {
		return nil, fmt.Errorf("experiments: fleet size %d out of range (E13.fleet wants positive sizes)", size)
	}
	rps, err := fleetRPs(comp)
	if err != nil {
		return nil, err
	}
	spec := workload.ArrivalSpec{
		RatePerSec: fleetRatePerSec,
		Deadline:   serveDeadline,
	}
	tr, err := spec.Generate(scaleSeed(cfg, comp.name), fleetRequests, rps, satASPs)
	if err != nil {
		return nil, err
	}
	router, err := cluster.RouterByName(fleetRouterName(cfg))
	if err != nil {
		return nil, err
	}
	fcfg := cluster.FleetConfig{
		Boards:  fleetBoards(comp, size),
		Seed:    cfg.Seed,
		FreqMHz: serveFreqMHz,
		Router:  router,
		Workers: cfg.Workers,
		Trace:   ft,
		Service: cluster.ServiceTemplate{
			QueueCap: serveQueueCap,
			Prewarm:  satASPs,
			Images:   src.images,
		},
	}
	if auto {
		// The reactive point: start at one board, grow on windowed shed or
		// p99 pressure against the serve deadline, shrink when comfortable.
		fcfg.Autoscaler = &cluster.AutoscalerConfig{
			Window:  25 * sim.Millisecond,
			Min:     1,
			Max:     size,
			ShedHi:  0.01,
			P99HiUS: serveDeadline.Microseconds(),
			ShedLo:  0,
			P99LoUS: serveDeadline.Microseconds() / 10,
		}
	}
	f, err := cluster.New(fcfg)
	if err != nil {
		return nil, err
	}
	return f.Serve(tr)
}

func scaleRow(label, boards, router string, st *cluster.FleetStats) []string {
	agg := st.Aggregate
	return []string{
		label, boards, router,
		strconv.Itoa(agg.Offered), strconv.Itoa(agg.Completed), strconv.Itoa(agg.Shed),
		f0(st.GoodputPerSec()),
		fmt.Sprintf("%.0f%%", 100*st.CacheHitRatio()),
		ms(agg.SojournUS.Quantile(0.50)), ms(agg.SojournUS.Quantile(0.95)), ms(agg.SojournUS.Quantile(0.99)),
		strconv.Itoa(agg.DeadlineMisses),
		fmt.Sprintf("%d/%d", st.PeakActive, st.FinalActive),
	}
}

func scaleShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	points := fleetPoints(src.Cfg)
	comps := fleetCompositions()
	if shard < 0 || shard >= len(comps)*points {
		return nil, fmt.Errorf("experiments: scaleout shard %d out of range", shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	comp := comps[shard/points]
	pt := shard % points
	sizes := fleetSizes(src.Cfg)
	auto := pt == len(sizes)
	size := 0
	if auto {
		// The autoscaled point may use the largest swept size.
		for _, s := range sizes {
			if s > size {
				size = s
			}
		}
	} else {
		size = sizes[pt]
	}

	label := comp.name
	if auto {
		label += " (auto)"
	}
	st, err := scalePoint(src, comp, size, auto,
		obsFleet(src.Cfg, "E13", shard, fmt.Sprintf("%s x%d", label, size)))
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E13", Title: scaleTitle, SimEvents: st.KernelEvents}
	rep.Rows = append(rep.Rows, scaleRow(label, cluster.BoardsLabel(fleetBoards(comp, size)), fleetRouterName(src.Cfg), st))
	if !auto {
		good := sim.Series{Name: "e13_" + comp.name + "_goodput", XLabel: "fleet_size", YLabel: "goodput_req_per_s"}
		p99 := sim.Series{Name: "e13_" + comp.name + "_p99", XLabel: "fleet_size", YLabel: "p99_sojourn_us"}
		good.Append(float64(size), st.GoodputPerSec())
		p99.Append(float64(size), st.Aggregate.SojournUS.Quantile(0.99))
		rep.Series = append(rep.Series, good, p99)
	} else if len(st.ScaleEvents) > 0 {
		last := st.ScaleEvents[len(st.ScaleEvents)-1]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s autoscaler: %d scale events, settled at %d boards (last: %s at %.0f ms)",
			comp.name, len(st.ScaleEvents), st.FinalActive, last.Reason, last.AtUS/1000))
	}
	return rep, nil
}

func scaleMerge(cfg Config, _ *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E13", scaleTitle, scaleHeader, parts)
	for _, comp := range fleetCompositions() {
		good := rep.points("e13_" + comp.name + "_goodput")
		if len(good) < 2 {
			continue
		}
		first, last := good[0], good[len(good)-1]
		if first.Y > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: goodput scales %.1f× from %d to %d boards at %d req/s offered (%.0f → %.0f req/s useful)",
				comp.name, last.Y/first.Y, int(first.X), int(last.X), fleetRatePerSec, first.Y, last.Y))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d-request streams at %d req/s (above the ~800 req/s cached single-board knee), %s routing, warm caches, deadlines at %v",
		fleetRequests, fleetRatePerSec, fleetRouterName(cfg), serveDeadline))
	return rep, nil
}

// --- E14: routing policy × skewed popularity ---

var routeHeader = []string{
	"router", "offered", "completed", "shed", "cache hit ratio",
	"stage [s]", "routing spread", "p50 [ms]", "p95 [ms]", "p99 [ms]", "deadline misses",
}

func routeShards(Config) int { return len(cluster.RouterNames()) }

// routeStream is E14's shared arrival stream: skewed image and tenant
// popularity over the campaign platform's RP plan, identical across the
// policy shards so the routers face the same traffic.
func routeStream(cfg Config) (workload.Trace, []cluster.BoardSpec, error) {
	boards := make([]cluster.BoardSpec, routeFleetSize)
	for i := range boards {
		boards[i] = cluster.BoardSpec{Platform: cfg.Platform}
	}
	rps, err := cluster.CommonRPs(boards)
	if err != nil {
		return nil, nil, err
	}
	spec := workload.ArrivalSpec{
		RatePerSec: routeRatePerSec,
		Skew:       routeSkew,
		Tenants:    routeTenants,
		Deadline:   serveDeadline,
	}
	tr, err := spec.Generate(cfg.Seed^0x0E14, fleetRequests, rps, satASPs)
	return tr, boards, err
}

func routeShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	names := cluster.RouterNames()
	if shard < 0 || shard >= len(names) {
		return nil, fmt.Errorf("experiments: route shard %d out of range", shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	router, err := cluster.RouterByName(names[shard])
	if err != nil {
		return nil, err
	}
	tr, boards, err := routeStream(src.Cfg)
	if err != nil {
		return nil, err
	}
	f, err := cluster.New(cluster.FleetConfig{
		Boards:  boards,
		Seed:    src.Cfg.Seed,
		FreqMHz: serveFreqMHz,
		Router:  router,
		Workers: src.Cfg.Workers,
		Trace:   obsFleet(src.Cfg, "E14", shard, router.Name()),
		Service: cluster.ServiceTemplate{
			QueueCap: serveQueueCap,
			// Cold, constrained caches: five images per board against the
			// 16-image working set — residency is earned by routing.
			CacheBudgetImages: routeCacheImages,
			Images:            src.images,
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
	rep := &Report{ID: "E14", Title: routeTitle, SimEvents: st.KernelEvents}
	rep.Rows = append(rep.Rows, []string{
		router.Name(),
		strconv.Itoa(agg.Offered), strconv.Itoa(agg.Completed), strconv.Itoa(agg.Shed),
		fmt.Sprintf("%.0f%%", 100*st.CacheHitRatio()),
		fmt.Sprintf("%.2f", agg.StageTime.Seconds()),
		fmt.Sprintf("%.1f", st.RoutingSpread()),
		ms(agg.SojournUS.Quantile(0.50)), ms(agg.SojournUS.Quantile(0.95)), ms(agg.SojournUS.Quantile(0.99)),
		strconv.Itoa(agg.DeadlineMisses),
	})
	series := sim.Series{Name: "e14_" + router.Name(), XLabel: "metric_index", YLabel: "value"}
	series.Append(0, st.CacheHitRatio())
	series.Append(1, agg.SojournUS.Quantile(0.99))
	rep.Series = append(rep.Series, series)
	return rep, nil
}

func routeMerge(cfg Config, prof *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E14", routeTitle, routeHeader, parts)
	aff := rep.points("e14_affinity")
	rr := rep.points("e14_round-robin")
	if len(aff) == 2 && len(rr) == 2 && aff[1].Y > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"bitstream-affinity keeps each image on one board's cache: hit ratio %.0f%% vs round-robin's %.0f%%, p99 %.1f ms vs %.1f ms (%.1f× lower) under Zipf(%.1f) image popularity",
			100*aff[0].Y, 100*rr[0].Y, aff[1].Y/1000, rr[1].Y/1000, rr[1].Y/aff[1].Y, routeSkew))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d-board %s fleet, cold %d-image caches vs a %d-image working set, %d req at %d req/s; routing spread is max/min requests per board (1.0 = perfectly balanced)",
		routeFleetSize, prof.Name, routeCacheImages, len(satASPs)*len(prof.RPNames()), fleetRequests, routeRatePerSec))
	return rep, nil
}
