package pdr

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/obs"
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
	// UpsetSeed per board, and builds its images in a store of its own.
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
	opts   FleetOptions
	common []string // the boards' shared RP set, computed at NewFleet
	serves int32    // Serve ordinal, keys the tracer's per-run fleets
}

// NewFleet validates the options and returns a fleet handle. Board
// construction happens per Serve call (fresh boards per run, exactly like
// System.Serve's fresh service); validation — platforms, the RP-plan
// intersection, router, dispatch policy, autoscaler bounds — happens here
// without booting anything, so a misconfigured fleet fails fast.
func NewFleet(o FleetOptions) (*Fleet, error) {
	f := &Fleet{opts: o}
	specs := f.specs()
	common, err := cluster.CommonRPs(specs)
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	f.common = common
	if o.Router != "" {
		if _, err := cluster.RouterByName(o.Router); err != nil {
			return nil, fmt.Errorf("pdr: %w", err)
		}
	}
	if err := o.Service.Validate(); err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	if o.Autoscale != nil {
		if err := o.Autoscale.Validate(len(specs)); err != nil {
			return nil, fmt.Errorf("pdr: %w", err)
		}
	}
	if o.Chaos != nil {
		if err := o.Chaos.Validate(len(specs)); err != nil {
			return nil, fmt.Errorf("pdr: %w", err)
		}
	}
	return f, nil
}

// specs resolves the board list (the zero value means two zedboards).
func (f *Fleet) specs() []cluster.BoardSpec {
	boards := f.opts.Boards
	if len(boards) == 0 {
		boards = []string{"", ""}
	}
	specs := make([]cluster.BoardSpec, len(boards))
	for i, p := range boards {
		specs[i] = cluster.BoardSpec{Platform: p}
	}
	return specs
}

// build assembles a fresh cluster fleet from the options.
func (f *Fleet) build(ft *obs.FleetTrace) (*cluster.Fleet, error) {
	o := f.opts
	specs := f.specs()
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	freq := o.FreqMHz
	switch {
	case freq == 0:
		freq = 200
	case freq < 0:
		freq = 0
	}
	var router cluster.Router
	if o.Router != "" {
		var err error
		if router, err = cluster.RouterByName(o.Router); err != nil {
			return nil, fmt.Errorf("pdr: %w", err)
		}
	}
	workers := o.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cf, err := cluster.New(cluster.FleetConfig{
		Boards:     specs,
		Seed:       seed,
		FreqMHz:    freq,
		Router:     router,
		Autoscaler: o.Autoscale,
		Chaos:      o.Chaos,
		Workers:    workers,
		Trace:      ft,
		Service:    o.Service,
	})
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	return cf, nil
}

// Size returns the fleet's board count.
func (f *Fleet) Size() int { return len(f.specs()) }

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
	var ft *obs.FleetTrace
	if f.opts.Tracer != nil {
		router := f.opts.Router
		if router == "" {
			router = "round-robin"
		}
		n := atomic.AddInt32(&f.serves, 1) - 1
		ft = f.opts.Tracer.Fleet(fmt.Sprintf("fleet/%02d", n),
			fmt.Sprintf("%d boards, %s", f.Size(), router))
	}
	cf, err := f.build(ft)
	if err != nil {
		return nil, err
	}
	st, err := cf.Serve(tr)
	if err != nil {
		return nil, fmt.Errorf("pdr: %w", err)
	}
	return st, nil
}
