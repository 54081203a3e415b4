package pdr

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/hll"
	"repro/internal/sim"
)

// Re-exported fleet types.
type (
	// FleetStats is the merged outcome of a fleet run: per-board break-down,
	// aggregate service statistics and the autoscaler trajectory.
	FleetStats = cluster.FleetStats
	// BoardStats is one board's view of a fleet run.
	BoardStats = cluster.BoardStats
	// ScaleEvent is one autoscaler decision.
	ScaleEvent = cluster.ScaleEvent
	// AutoscalePolicy bounds, thresholds and decision rule for the
	// autoscaler (reactive thresholds or the predictive forecast).
	AutoscalePolicy = cluster.AutoscalerConfig
	// ScalerPolicy names an autoscaler decision rule (see ScalerReactive,
	// ScalerPredictive).
	ScalerPolicy = cluster.ScalerPolicy
	// WindowStat is one decided window of the scaler's trajectory
	// (offered/shed counts, observed and forecast rates, active boards).
	WindowStat = cluster.WindowStat
	// ChaosPolicy attaches a fault schedule and the fleet's self-healing
	// machinery (health probes, failover, outlier ejection, hedging) to a
	// run. Nil keeps the historical fault-free semantics bit for bit.
	ChaosPolicy = cluster.ChaosConfig
	// FaultStorm shapes a seeded fault storm; its Schedule method draws the
	// deterministic event list a ChaosPolicy replays.
	FaultStorm = chaos.Config
	// FaultEvent is one scheduled fault (crash, recovery, thermal excursion,
	// CRC glitch).
	FaultEvent = chaos.Event
)

// The autoscaler decision rules an AutoscalePolicy selects between.
const (
	// ScalerReactive steps the active set by one board on the decided
	// window's own shed/p99 signals (the "" default).
	ScalerReactive = cluster.ScalerReactive
	// ScalerPredictive forecasts the next window's arrival rate (Holt
	// smoothing over the observed windows) and retargets to the board
	// count that rate needs, pre-provisioning ahead of building load.
	ScalerPredictive = cluster.ScalerPredictive
)

// ScalerPolicies lists the recognised autoscaler policy names.
func ScalerPolicies() []string { return cluster.ScalerPolicies() }

// Routers lists the fleet routing policies Serve accepts, in presentation
// order: round-robin, least-outstanding (join-shortest-queue), weighted
// (by platform capacity) and affinity (consistent hashing on the requested
// bitstream image, so the same image keeps hitting the same board's cache).
func Routers() []string { return cluster.RouterNames() }

// FleetOptions configures NewFleet. The zero value is a usable two-board
// ZedBoard fleet with round-robin routing.
type FleetOptions struct {
	// Boards lists the platform profile of each board in index order
	// (see Platforms; "" entries mean the default zedboard). Empty means
	// two zedboards.
	Boards []string
	// Seed fixes the fleet's deterministic seed (default 1); each board's
	// RNG stream derives from it and the board index.
	Seed uint64
	// FreqMHz is the ICAP over-clock applied to every board (default 200,
	// the paper's recommended operating point; < 0 keeps the nominal 100).
	FreqMHz float64
	// Router is the routing policy name ("" = round-robin; see Routers).
	Router string
	// Service is every board's service configuration, resolved against
	// each board's own profile (see ServiceConfig). The fleet sets
	// UpsetSeed per board. Every board of every Serve builds its images in
	// Service.Images, or, when that is nil, in one store the fleet makes
	// at NewFleet, so a repeated Serve builds no image again.
	Service ServiceConfig
	// Autoscale, when non-nil, starts each run at Min active boards and
	// reacts to windowed shed-rate and p99 signals. Nil keeps the whole
	// fleet active.
	Autoscale *AutoscalePolicy
	// Chaos, when non-nil, replays a fault schedule against each run and
	// turns on the self-healing machinery. Build the schedule with a
	// FaultStorm (seeded, deterministic) or hand-write the events.
	Chaos *ChaosPolicy
	// Workers bounds the goroutines the fleet's per-epoch board advance
	// (and final drain) fans out over: 0 or 1 runs the historical
	// sequential loop, < 0 means one worker per available CPU. Purely a
	// wall-clock knob — Serve's output is byte-identical at every setting.
	Workers int
	// Tracer, when non-nil, records each Serve call's request spans,
	// control-plane events and sim-time metrics under the key
	// "fleet/NN" (NN = the fleet's Serve ordinal). Tracing never
	// perturbs a run — FleetStats stay byte-identical with or without
	// it — and the tracer's exports are byte-identical at every
	// Workers setting. Nil (the default) costs nothing.
	Tracer *Tracer
}

// Fleet is the multi-board counterpart of System: N simulated boards
// behind a request router. Serve is System.Serve one level up — the same
// Trace in, service statistics out — with each call serving on freshly
// booted boards, so a Fleet value is reusable and every run is a pure
// function of (options, trace).
type Fleet struct {
	cfg    cluster.FleetConfig // the resolved options; Serve adds a fresh router and the trace
	router string              // routing policy name (routers carry state, so one per Serve)
	tracer *Tracer
	common []string // the boards' shared RP set
	serves int32    // Serve ordinal, keys the tracer's per-run fleets
}

// NewFleet resolves the options' defaults into one fleet configuration and
// validates it — platforms, the RP-plan intersection, router, service,
// autoscaler bounds and chaos schedule — without booting anything, so a
// misconfigured fleet fails fast. Board construction happens per Serve
// call (fresh boards per run, exactly like System.Serve's fresh service).
func NewFleet(o FleetOptions) (*Fleet, error) {
	boards := o.Boards
	if len(boards) == 0 {
		boards = []string{"", ""}
	}
	cfg := cluster.FleetConfig{
		Boards:     make([]cluster.BoardSpec, len(boards)),
		Seed:       o.Seed,
		FreqMHz:    o.FreqMHz,
		Autoscaler: o.Autoscale,
		Chaos:      o.Chaos,
		Workers:    o.Workers,
		Service:    o.Service,
	}
	for i, p := range boards {
		cfg.Boards[i].Platform = p
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch {
	case cfg.FreqMHz == 0:
		cfg.FreqMHz = 200
	case cfg.FreqMHz < 0:
		cfg.FreqMHz = 0
	}
	if cfg.Workers < 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Service.Images == nil {
		cfg.Service.Images = hll.NewImageStore()
	}
	f := &Fleet{cfg: cfg, router: o.Router, tracer: o.Tracer}
	if f.router == "" {
		f.router = "round-robin"
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	if _, err := f.newRouter(); err != nil {
		return nil, err
	}
	f.common, _ = cluster.CommonRPs(cfg.Boards) // validated above
	return f, nil
}

// newRouter returns a fresh instance of the fleet's routing policy.
func (f *Fleet) newRouter() (cluster.Router, error) {
	r, err := cluster.RouterByName(f.router)
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	return r, nil
}

// Size returns the fleet's board count.
func (f *Fleet) Size() int { return len(f.cfg.Boards) }

// RPNames lists the partitions every fleet board serves — the servable RP
// set a fleet trace must stay within (mixed fleets intersect their boards'
// RP plans).
func (f *Fleet) RPNames() []string { return append([]string(nil), f.common...) }

// OpenTrace generates an open-loop arrival stream over the fleet's common
// RPs from the spec — the fleet counterpart of System.OpenTrace.
func (f *Fleet) OpenTrace(spec ArrivalSpec, seed uint64, n int, asps []string) (Trace, error) {
	return spec.Generate(seed, n, f.RPNames(), asps)
}

// OpenTraceUntil generates an open-loop arrival stream covering the time
// horizon instead of a fixed request count — the natural form when the
// spec carries a RateCurve whose shape (not a count) defines the run.
func (f *Fleet) OpenTraceUntil(spec ArrivalSpec, seed uint64, horizon sim.Duration, asps []string) (Trace, error) {
	return spec.GenerateUntil(seed, horizon, f.RPNames(), asps)
}

// Serve routes an open-loop request stream across freshly booted boards:
// the router assigns each arrival to a board before it enters that board's
// per-RP queues, boards serve independently (each with its own queues,
// dispatch policy and bitstream cache), and the merged statistics come
// back. Repeated calls with the same trace produce byte-identical results.
func (f *Fleet) Serve(tr Trace) (*FleetStats, error) {
	cfg := f.cfg
	var err error
	if cfg.Router, err = f.newRouter(); err != nil {
		return nil, err
	}
	if f.tracer != nil {
		n := atomic.AddInt32(&f.serves, 1) - 1
		cfg.Trace = f.tracer.Fleet(fmt.Sprintf("fleet/%02d", n),
			fmt.Sprintf("%d boards, %s", f.Size(), f.router))
	}
	cf, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	st, err := cf.Serve(tr)
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	return st, nil
}
