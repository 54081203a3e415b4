// Package cluster is the fleet layer above one board's reconfiguration
// service: N independent simulated boards (each an hll.Service on its own
// kernel, mixed platform profiles allowed) behind a front-end router that
// assigns every arriving request to a board before it enters that board's
// per-RP queues, plus a reactive autoscaler that grows and shrinks the
// active board set between bounds.
//
// The fleet walks the arrival stream in time order as a sequence of
// epochs, one per distinct arrival timestamp. Before the epoch's arrivals
// are routed, every board's simulation advances to the epoch instant, so
// the router sees exact board state (outstanding work, queue depths)
// rather than an estimate; then the chosen board admits each request under
// its own admission control. Between routing decisions boards only
// interact through those assignments, so the per-epoch advance (and the
// final drain) fans out across FleetConfig.Workers goroutines — each board
// owns its whole simulation stack, completions buffer per board, and every
// cross-board fold happens in board-index order on the epoch boundary.
// Determinism is the hard requirement: routing, chaos injection, health
// verdicts and autoscaler decisions stay sequential between epochs,
// per-board RNG streams derive from the fleet seed and board index, and
// the merged statistics are a pure function of (seed, trace, fleet
// config) — byte-identical across repeated runs, worker counts and
// whatever campaign schedule produced them.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hll"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workpool"
	"repro/internal/zynq"
)

// BoardSpec names one board of the fleet.
type BoardSpec struct {
	// Platform is the registered platform profile the board simulates
	// ("" = the default zedboard).
	Platform string
}

// BoardsLabel renders a fleet composition compactly: "4× zedboard" when
// every board is the same platform, else the platforms in board order
// ("zedboard,zybo-z7-10,zc706,zedboard"). Reports and plan candidates use
// it alike.
func BoardsLabel(specs []BoardSpec) string {
	uniform := true
	for _, s := range specs[1:] {
		if s.Platform != specs[0].Platform {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%d× %s", len(specs), specs[0].Platform)
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Platform
	}
	return strings.Join(names, ",")
}

// ServiceTemplate is the per-board service configuration every fleet board
// is built from: hll.ServiceConfig itself, resolved by each board's
// hll.NewService against its own profile, so a mixed fleet gives every
// board the budget its platform affords. The fleet sets UpsetSeed per
// board, and Images to the fleet's own store when the template leaves it
// nil.
type ServiceTemplate = hll.ServiceConfig

// FleetConfig assembles a fleet.
type FleetConfig struct {
	// Boards lists the fleet members in fixed index order.
	Boards []BoardSpec
	// Seed is the fleet seed; board i's platform RNG stream derives from
	// (Seed, i), so fleet runs are pure functions of the configuration.
	Seed uint64
	// FreqMHz is the ICAP over-clock applied to every board (0 = nominal).
	FreqMHz float64
	// Router assigns arrivals to boards (nil = round-robin). Routers carry
	// state; do not share one across fleets.
	Router Router
	// Autoscaler, when non-nil, starts the fleet at Min active boards and
	// reacts to windowed shed/p99 signals. Nil keeps every board active.
	Autoscaler *AutoscalerConfig
	// Chaos, when non-nil, injects the configured fault schedule and turns
	// on the self-healing machinery (health tracking, failover, hedging).
	// Nil keeps the historical fault-free semantics bit for bit.
	Chaos *ChaosConfig
	// Workers bounds the goroutines the epoch advance and final drain fan
	// out over (≤ 1 = the historical single-goroutine loop). Output is
	// byte-identical at every setting; only wall clock changes.
	Workers int
	// Trace, when non-nil, records the run's deterministic span/event
	// stream and sim-time metrics (see internal/obs): per-board buffers
	// are written only by that board's goroutine during the parallel
	// advance and exported in board-index order, so the trace bytes are
	// independent of Workers. Nil keeps tracing disabled at zero cost.
	Trace *obs.FleetTrace
	// Service is the per-board service template.
	Service ServiceTemplate
}

// board is one fleet member.
type board struct {
	spec     BoardSpec
	profile  *platform.Profile
	plat     *zynq.Platform
	ctrl     *core.Controller
	svc      *hll.Service
	hasRP    map[string]bool
	weight   float64
	assigned int
	// completions buffers this board's completion observations during an
	// epoch's (possibly parallel) advance; the fleet folds the buffers into
	// the autoscaler in board-index order at the epoch boundary, which is
	// exactly the order the sequential loop produced them in. Unused (nil)
	// without a scaler.
	completions []completion
}

// completion is one buffered onComplete observation.
type completion struct {
	rel, sojourn sim.Duration
}

// Fleet is N boards behind a router. Build with New, serve one stream with
// Serve (a fleet, like a service, is single-use — every Serve in the public
// API builds a fresh one).
type Fleet struct {
	cfg    FleetConfig
	boards []*board
	router Router
	scaler *autoscaler
	health *health   // nil without a Chaos config
	obs    *fleetObs // nil without a Trace
	common []string  // RP names every board serves, in board-0 order
	served bool
}

// deriveSeed spreads the fleet seed across board indices (splitmix64-style
// odd multiplier, the same derivation the experiment scenarios use for
// per-point streams).
func deriveSeed(seed uint64, index int) uint64 {
	return seed ^ (uint64(index+1) * 0x9E3779B97F4A7C15)
}

// CommonRPs resolves the servable RP set of a board list — the partitions
// every board's platform has, in first-board plan order — straight from
// the profile registry, without booting anything. A trace over these can
// be routed to any board.
func CommonRPs(specs []BoardSpec) ([]string, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one board")
	}
	var common []string
	for i, spec := range specs {
		prof, ok := platform.Lookup(spec.Platform)
		if !ok {
			return nil, fmt.Errorf("cluster: board %d: unknown platform %q (registered: %s)",
				i, spec.Platform, platform.NameList())
		}
		names := prof.RPNames()
		if i == 0 {
			common = names
			continue
		}
		has := make(map[string]bool, len(names))
		for _, rp := range names {
			has[rp] = true
		}
		kept := common[:0]
		for _, rp := range common {
			if has[rp] {
				kept = append(kept, rp)
			}
		}
		common = kept
	}
	if len(common) == 0 {
		return nil, fmt.Errorf("cluster: fleet boards share no reconfigurable partition")
	}
	return common, nil
}

// New builds the fleet: every board is booted up front (an autoscaler
// activates and deactivates routing, not hardware), so the run's cost and
// RNG draws never depend on scaling decisions.
func New(cfg FleetConfig) (*Fleet, error) {
	common, err := CommonRPs(cfg.Boards)
	if err != nil {
		return nil, err
	}
	router := cfg.Router
	if router == nil {
		router = RoundRobin()
	}
	// One image store serves every board: boards of the same part stage
	// the same images, which are built once for the store's lifetime —
	// the caller's scope when it supplies one, else the fleet's.
	if cfg.Service.Images == nil {
		cfg.Service.Images = hll.NewImageStore()
	}
	f := &Fleet{cfg: cfg, router: router, common: common}
	if cfg.Autoscaler != nil {
		if err := cfg.Autoscaler.Validate(len(cfg.Boards)); err != nil {
			return nil, err
		}
		f.scaler = newAutoscaler(*cfg.Autoscaler)
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(len(cfg.Boards)); err != nil {
			return nil, err
		}
		f.health = newHealth(cfg.Chaos, len(cfg.Boards))
	}
	for i, spec := range cfg.Boards {
		b, err := newBoard(cfg, spec, i)
		if err != nil {
			return nil, fmt.Errorf("cluster: board %d (%s): %w", i, spec.Platform, err)
		}
		f.boards = append(f.boards, b)
	}
	if cfg.Trace != nil {
		f.obs = newFleetObs(cfg.Trace, f.boards)
	}
	return f, nil
}

func newBoard(cfg FleetConfig, spec BoardSpec, index int) (*board, error) {
	prof, ok := platform.Lookup(spec.Platform)
	if !ok {
		return nil, fmt.Errorf("unknown platform %q (registered: %s)", spec.Platform, platform.NameList())
	}
	p, err := zynq.NewPlatform(zynq.Options{Seed: deriveSeed(cfg.Seed, index), Profile: prof})
	if err != nil {
		return nil, err
	}
	p.ConfigureStatic()
	ctrl := core.New(p)
	if cfg.FreqMHz > 0 {
		if _, err := ctrl.SetFrequencyMHz(cfg.FreqMHz); err != nil {
			return nil, err
		}
	}
	scfg := cfg.Service
	scfg.UpsetSeed = deriveSeed(cfg.Seed, index) ^ 0x5E0D
	svc, err := hll.NewService(ctrl, scfg)
	if err != nil {
		return nil, err
	}
	weighFreq := cfg.FreqMHz
	if weighFreq <= 0 {
		weighFreq = prof.Clock.NominalMHz
	}
	b := &board{
		spec:    spec,
		profile: prof,
		plat:    p,
		ctrl:    ctrl,
		svc:     svc,
		hasRP:   make(map[string]bool),
		weight:  prof.MemoryPlateauMBs(weighFreq),
	}
	for _, rp := range svc.RPNames() {
		b.hasRP[rp] = true
	}
	if cfg.Trace != nil {
		svc.SetTracer(cfg.Trace.Board(index))
		cfg.Trace.Bind(index, prof.Name, svc.RPNames())
	}
	return b, nil
}

// RPNames lists the partitions every fleet board serves (the servable RP
// set a fleet trace must stay within), in board-0 plan order.
func (f *Fleet) RPNames() []string { return append([]string(nil), f.common...) }

// Router returns the active routing policy.
func (f *Fleet) Router() Router { return f.router }

// Size returns the fleet's board count.
func (f *Fleet) Size() int { return len(f.boards) }

// workers resolves the epoch fan-out width: ≤ 1 (and a one-board fleet)
// runs the historical sequential loop on the calling goroutine.
func (f *Fleet) workers() int {
	w := f.cfg.Workers
	if w < 1 {
		w = 1
	}
	if w > len(f.boards) {
		w = len(f.boards)
	}
	return w
}

// advanceAll moves every board to the epoch horizon. Boards are independent
// between routing decisions — each owns its kernel, platform and service —
// so the fan-out runs on up to workers goroutines, with two deterministic
// folds afterwards: buffered completions flush into the autoscaler in
// board-index order, and the lowest-index error (if any) is the one
// reported, matching the sequential loop's first-failure semantics.
func (f *Fleet) advanceAll(now sim.Duration, workers int, errs []error) error {
	workpool.Run(len(f.boards), workers, func(i int) {
		errs[i] = f.boards[i].svc.AdvanceTo(now)
	})
	f.flushCompletions()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: board %d: %w", i, err)
		}
	}
	return nil
}

// flushCompletions folds the boards' buffered completion observations into
// the autoscaler in board-index order — the exact insertion order the
// sequential loop produced by advancing boards one after another.
func (f *Fleet) flushCompletions() {
	if f.scaler == nil {
		return
	}
	for _, b := range f.boards {
		for _, c := range b.completions {
			f.scaler.observeCompletion(c.rel, c.sojourn)
		}
		b.completions = b.completions[:0]
	}
}

// Serve routes the whole arrival stream across the fleet and returns the
// merged statistics. The trace must be time-ordered and stay within the
// fleet's common RP set and the ASP library (validated at the fleet door).
func (f *Fleet) Serve(tr workload.Trace) (*FleetStats, error) {
	if f.served {
		return nil, fmt.Errorf("cluster: fleet already served a stream (build a fresh fleet per run)")
	}
	if err := tr.Validate(f.common, workload.LibraryNames()); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	f.served = true

	for i, b := range f.boards {
		if f.scaler != nil {
			// Completions buffer per board rather than calling the scaler
			// directly, so an epoch's advance can fan out across goroutines
			// without sharing scaler state; flushCompletions folds the
			// buffers back in index order.
			b := b
			b.svc.SetOnComplete(func(rel, sojourn sim.Duration) {
				b.completions = append(b.completions, completion{rel: rel, sojourn: sojourn})
			})
		}
		if err := b.svc.Begin(); err != nil {
			return nil, fmt.Errorf("cluster: board %d: %w", i, err)
		}
	}

	active := len(f.boards)
	if f.scaler != nil {
		active = f.scaler.cfg.Min
	}
	peak := active

	stats := &FleetStats{}
	now := sim.Duration(-1)
	workers := f.workers()
	errs := make([]error, len(f.boards))
	// The router's per-board snapshot persists across arrivals: the fields
	// that never change (Index, Weight) and HasRP — true by construction,
	// because the trace is validated against the fleet's common RP set, the
	// intersection every board serves — are set once here; buildViews
	// refreshes only the dynamic fields each arrival, and the assignment
	// sites in route/hedge keep Assigned current.
	views := make([]BoardView, len(f.boards))
	for i, b := range f.boards {
		views[i] = BoardView{Index: i, HasRP: true, Weight: b.weight}
	}
	batch := 0
	for _, req := range tr {
		if req.At > now {
			// A new epoch: every arrival sharing a timestamp routes against
			// this one advance.
			if f.obs != nil {
				f.obs.epoch(req.At, batch)
				batch = 0
			}
			now = req.At
			if err := f.advanceAll(now, workers, errs); err != nil {
				return nil, err
			}
			if f.obs != nil {
				// Sample on the post-advance state: ticks due in the gap all
				// observe it, and board state only changes at epochs.
				f.obs.sample(f, now, active)
			}
		}
		batch++
		if f.health != nil {
			if err := f.applyChaos(now); err != nil {
				return nil, err
			}
			if err := f.updateHealth(now); err != nil {
				return nil, err
			}
		}
		if f.scaler != nil {
			down := 0
			if f.health != nil {
				down = f.health.downCount()
			}
			active = f.scaler.evaluate(now, active, down)
			if active > peak {
				peak = active
			}
			if f.obs != nil {
				f.obs.scales(f.scaler.events)
			}
		}
		stats.Arrivals++
		f.buildViews(views, now, active)
		admitted, err := f.route(views, req, stats)
		if err != nil {
			return nil, err
		}
		if f.scaler != nil {
			f.scaler.observeArrival(req.At, !admitted)
		}
	}

	if f.obs != nil {
		f.obs.closeBatch(batch)
	}
	stats.PeakActive, stats.FinalActive = peak, active
	drained := make([]hll.ServiceStats, len(f.boards))
	workpool.Run(len(f.boards), workers, func(i int) {
		drained[i], errs[i] = f.boards[i].svc.Drain()
	})
	f.flushCompletions()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: board %d: %w", i, err)
		}
	}
	for i, b := range f.boards {
		stats.KernelEvents += b.plat.Kernel.Fired()
		stats.Boards = append(stats.Boards, BoardStats{
			Index:    i,
			Platform: b.profile.Name,
			Assigned: b.assigned,
			Stats:    drained[i],
		})
	}
	if f.scaler != nil {
		stats.ScaleEvents = append(stats.ScaleEvents, f.scaler.events...)
		stats.Windows = append(stats.Windows, f.scaler.log...)
	}
	stats.Aggregate = mergeStats(stats.Boards)
	return stats, nil
}

// buildViews refreshes the dynamic fields of the router's per-board
// snapshot for one arrival (the invariant fields are set once in Serve).
// With a chaos layer the health verdicts fold in, with one relaxation: when
// outlier ejection (Degraded) would leave no eligible board but some board
// is still up, the ejections are lifted for this pick — ejection is
// advisory, refusal is not, and shedding the whole fleet because every
// survivor is momentarily suspect would turn a partial fault into a total
// outage.
func (f *Fleet) buildViews(views []BoardView, now sim.Duration, active int) {
	anyEligible, anyUp := false, false
	for i, b := range f.boards {
		v := &views[i]
		v.Active = i < active
		v.Outstanding = b.svc.Outstanding()
		v.Queued = b.svc.Queued()
		if f.health != nil {
			v.Down = f.health.down[i]
			v.Degraded = f.health.degraded(i, now, v.Outstanding)
		}
		if eligible(*v) {
			anyEligible = true
		}
		if v.Active && v.HasRP && !v.Down {
			anyUp = true
		}
	}
	if f.health != nil && !anyEligible && anyUp {
		for i := range views {
			views[i].Degraded = false
		}
	}
}
