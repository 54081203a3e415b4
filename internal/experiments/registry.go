package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/hll"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workpool"
	"repro/internal/zynq"
)

// Scenario is one registered, discoverable experiment. A scenario is a pure
// function of (Config, shard index): every shard boots its own fresh boards
// (each its own simulation kernel) from its Boards source, so shards can
// execute in any order on any number of workers, and Merge — applied to the
// shard reports in index order — reconstructs byte-identical output
// regardless of the schedule.
type Scenario struct {
	// ID is the stable experiment id ("E1"…"E17", "A1"…"A5").
	ID string
	// Title names the paper artefact.
	Title string
	// Aliases are alternative lookup keys (the legacy pdrbench names).
	Aliases []string
	// Shards returns the fixed shard-plan size (≥1) for a configuration.
	// The plan never depends on worker count — that is what makes
	// parallel output bit-identical to sequential.
	Shards func(cfg Config) int
	// Platforms optionally lists the platform profiles the scenario's
	// shards span (the cross-device scenarios sweep every board). nil
	// means the scenario runs on the campaign's selected platform.
	Platforms func(cfg Config) []string
	// Run executes one shard, booting whatever boards it measures from
	// src, and returns its (partial) report. Single-shard scenarios ignore
	// the shard index. Run must honour ctx between measurement points.
	Run func(ctx context.Context, src *Boards, shard int) (*Report, error)
	// Merge combines the per-shard reports, given in shard order, into
	// the final Report; prof is the campaign platform's profile. nil means
	// single-shard: the report is parts[0].
	Merge func(cfg Config, prof *platform.Profile, parts []*Report) (*Report, error)
}

// Boards is one unit's board source: the campaign configuration, its
// resolved platform profile, and a fresh board on request. Every board a
// shard measures comes from here, so the executor counts the events of
// each one; a shard that boots nothing costs no board. It also carries
// the campaign run's image store, which its Envs use and which a shard
// hands to the frameworks, services and fleets it builds.
type Boards struct {
	// Cfg is the campaign configuration (grids, seed, worker budget).
	Cfg Config
	// Profile is Cfg.Platform, resolved once by Execute.
	Profile *platform.Profile
	// images is the run's image store: Execute hands the same one to
	// every unit, and drops it when the run returns.
	images  *hll.ImageStore
	kernels []*sim.Kernel
}

// Env boots a fresh Env on the campaign platform.
func (b *Boards) Env() (*Env, error) { return b.EnvFor(b.Cfg.Platform) }

// EnvFor boots a fresh Env on the named platform board.
func (b *Boards) EnvFor(name string) (*Env, error) {
	cfg := b.Cfg
	cfg.Platform = name
	env, err := bootEnv(cfg, b.images)
	if err != nil {
		return nil, err
	}
	b.kernels = append(b.kernels, env.Platform.Kernel)
	return env, nil
}

// boot boots a bare platform from explicit options (A2's DRAM variants).
func (b *Boards) boot(opts zynq.Options) (*zynq.Platform, error) {
	p, err := zynq.NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	b.kernels = append(b.kernels, p.Kernel)
	return p, nil
}

var (
	registry []Scenario
	regKey   = make(map[string]int)
)

// Register adds a scenario to the package registry. It panics on a
// duplicate ID/alias or a malformed scenario — registration happens at
// init, so a panic is a build-time programming error, not a runtime one.
func Register(s Scenario) {
	if s.ID == "" || s.Title == "" || s.Run == nil {
		panic(fmt.Sprintf("experiments: invalid scenario %+v", s))
	}
	if s.Shards == nil {
		s.Shards = func(Config) int { return 1 }
	}
	idx := len(registry)
	for _, key := range append([]string{s.ID}, s.Aliases...) {
		if _, dup := regKey[key]; dup {
			panic(fmt.Sprintf("experiments: duplicate scenario key %q", key))
		}
		regKey[key] = idx
	}
	registry = append(registry, s)
}

// Lookup finds a scenario by ID or alias.
func Lookup(key string) (Scenario, bool) {
	idx, ok := regKey[key]
	if !ok {
		return Scenario{}, false
	}
	return registry[idx], true
}

// All returns every registered scenario in registration order (E1…E17
// then A1…A5 — the order EXPERIMENTS.md presents them).
func All() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered scenario IDs in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.ID
	}
	return out
}

// KeyList renders "E1|E2|…" for usage strings.
func KeyList() string { return strings.Join(IDs(), "|") }

// Execution is the outcome of Execute: one merged report per scenario, in
// the order the scenarios were given, plus the facts of the schedule that
// produced them. Workers (shard workers) and Units ((scenario, shard)
// pairs) are the schedule's shape, Pool each worker's wall-clock
// utilization and Elapsed the whole run's wall clock; none of them affects
// Reports.
type Execution struct {
	Reports []*Report
	Workers int
	Units   int
	Pool    []workpool.WorkerCount
	Elapsed time.Duration
}

// Execute is the one executor of the scenarios' shard plans: the campaign,
// pdrbench, EXPERIMENTS.md and the tests all run scenarios through it, so
// all of them report the same numbers. It lays out one unit per (scenario,
// shard), splits the goroutine budget (≤ 0 = one per CPU) with
// workpool.Split — min(budget, units) shard workers, the rest handed to
// every unit as cfg.Workers for its fleet epochs or planner simulations —
// and runs each unit on its own Boards source, under pprof labels naming
// its scenario and shard. The units share one image store, so the run
// builds each distinct image once. Each scenario's parts then merge in
// index order, so the reports are byte-identical at every budget.
//
// An unknown cfg.Platform fails before any shard runs. Shard errors are
// selected deterministically: the lowest-index real failure wins, and bare
// cancellations (a worker aborted because another unit failed, or the
// caller cancelled) surface only when nothing else went wrong.
func Execute(ctx context.Context, scens []Scenario, cfg Config, budget int) (*Execution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prof, err := ProfileFor(cfg)
	if err != nil {
		return nil, err
	}
	// The fixed shard plan, independent of the budget.
	type unit struct{ scen, shard int }
	var units []unit
	parts := make([][]*Report, len(scens))
	for si, s := range scens {
		parts[si] = make([]*Report, s.Shards(cfg))
		for k := range parts[si] {
			units = append(units, unit{si, k})
		}
	}
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	ex := &Execution{Units: len(units)}
	ex.Workers, cfg.Workers = workpool.Split(budget, len(units))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	images := hll.NewImageStore()
	t0 := time.Now()
	pool := &workpool.Counters{}
	errs := make([]error, len(units))
	workpool.RunCounted(len(units), ex.Workers, pool, func(i int) {
		u, s := units[i], scens[units[i].scen]
		labels := pprof.Labels("scenario", s.ID, "shard", strconv.Itoa(u.shard))
		pprof.Do(runCtx, labels, func(ctx context.Context) {
			parts[u.scen][u.shard], errs[i] = runShard(ctx, s, &Boards{Cfg: cfg, Profile: prof, images: images}, u.shard)
		})
		if errs[i] != nil {
			cancel()
		}
	})

	var cancelled error
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cancelled = cmp.Or(cancelled, err)
		default:
			return nil, fmt.Errorf("experiments: %s shard %d: %w", scens[units[i].scen].ID, units[i].shard, err)
		}
	}
	if cancelled != nil {
		return nil, cancelled
	}

	for si, s := range scens {
		rep := parts[si][0]
		if s.Merge != nil {
			if rep, err = s.Merge(cfg, prof, parts[si]); err != nil {
				return nil, fmt.Errorf("experiments: %s merge: %w", s.ID, err)
			}
			// Merge builds a fresh report from the parts' tables; the
			// profiling tallies fold in here (wall clock sums the shards'
			// costs even when they overlapped on workers).
			for _, p := range parts[si] {
				rep.SimEvents += p.SimEvents
				rep.WallMS += p.WallMS
			}
		}
		ex.Reports = append(ex.Reports, rep)
	}
	ex.Pool = pool.Snapshot()
	ex.Elapsed = time.Since(t0)
	return ex, nil
}

// runShard runs one unit and tallies its costs: on top of the events the
// shard set itself (fleet boards, planner simulations), every kernel it
// booted from src.
func runShard(ctx context.Context, s Scenario, src *Boards, shard int) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rep, err := s.Run(ctx, src, shard)
	if err != nil {
		return nil, err
	}
	for _, k := range src.kernels {
		rep.SimEvents += k.Fired()
	}
	rep.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return rep, nil
}

// single adapts a whole-artefact runner to the shard interface: it runs
// on a fresh board of the campaign platform under the shard's ctx.
func single(fn func(context.Context, *Env) (*Report, error)) func(context.Context, *Boards, int) (*Report, error) {
	return func(ctx context.Context, src *Boards, _ int) (*Report, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		env, err := src.Env()
		if err != nil {
			return nil, err
		}
		return fn(ctx, env)
	}
}

// concat is the common half of a Merge: a report with the given header
// whose rows and notes are the parts' in index order, and whose series are
// the parts' with same-named series stitched into one in first-appearance
// order. Shards that split one curve (a frequency or rate segment each)
// append its points in shard order, so the stitched curve stays sorted.
// Each Merge adds only its pivots and headline notes.
func concat(id, title string, header []string, parts []*Report) *Report {
	rep := &Report{ID: id, Title: title, Header: header}
	at := make(map[string]int)
	for _, p := range parts {
		rep.Rows = append(rep.Rows, p.Rows...)
		rep.Notes = append(rep.Notes, p.Notes...)
		for _, s := range p.Series {
			if i, ok := at[s.Name]; ok {
				rep.Series[i].Points = append(rep.Series[i].Points, s.Points...)
				continue
			}
			at[s.Name] = len(rep.Series)
			// Clipped, so stitching reallocates instead of writing into
			// the part's backing array.
			s.Points = slices.Clip(s.Points)
			rep.Series = append(rep.Series, s)
		}
	}
	return rep
}

// points returns the points of the report's series with the given name
// (nil when it has none).
func (r *Report) points(name string) []sim.Point {
	for _, s := range r.Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}

// segBounds splits n items into k contiguous segments and returns the
// half-open bounds of segment i. Segment sizes differ by at most one and
// depend only on (n, k) — part of the fixed shard plan.
func segBounds(n, k, i int) (lo, hi int) {
	base, rem := n/k, n%k
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func init() {
	Register(Scenario{
		ID:      "E1",
		Title:   "Table I — throughput vs. frequency when over-clocking",
		Aliases: []string{"tableI"},
		Run:     single(TableI),
	})
	Register(Scenario{
		ID:      "E2",
		Title:   "Fig. 5 — throughput vs. frequency",
		Aliases: []string{"fig5"},
		Shards:  fig5Shards,
		Run:     fig5Shard,
		Merge:   fig5Merge,
	})
	Register(Scenario{
		ID:      "E3",
		Title:   "Sec. IV-A — temperature stress (pass = CRC valid)",
		Aliases: []string{"stress"},
		Shards:  stressShards,
		Run:     stressShard,
		Merge:   stressMerge,
	})
	Register(Scenario{
		ID:      "E4",
		Title:   "Fig. 6 — P_PDR [W] vs. frequency at die temperatures",
		Aliases: []string{"fig6"},
		Shards:  fig6Shards,
		Run:     fig6Shard,
		Merge:   fig6Merge,
	})
	Register(Scenario{
		ID:      "E5",
		Title:   "Table II — power efficiency for over-clocking at 40 °C",
		Aliases: []string{"tableII"},
		Run:     single(TableII),
	})
	Register(Scenario{
		ID:      "E6",
		Title:   "Table III — comparison with related work",
		Aliases: []string{"tableIII"},
		Run:     single(TableIII),
	})
	Register(Scenario{
		ID:      "E7",
		Title:   "Sec. VI — proposed SRAM-based PDR",
		Aliases: []string{"secVI"},
		Run:     single(SecVI),
	})
	Register(Scenario{
		ID:      "E8",
		Title:   "latency-claim consistency check (abstract vs. Table I)",
		Aliases: []string{"claims"},
		Run:     single(LatencyClaims),
	})
	Register(Scenario{
		ID:      "E9",
		Title:   "Fig. 1 framework under Poisson load (sharded trace segments)",
		Aliases: []string{"poisson"},
		Shards:  poissonShards,
		Run:     poissonShard,
		Merge:   poissonMerge,
	})
	Register(Scenario{
		ID:        "E10",
		Title:     xplatTitle,
		Aliases:   []string{"xplat"},
		Shards:    xplatShards,
		Platforms: boardNames,
		Run:       xplatShard,
		Merge:     xplatMerge,
	})
	Register(Scenario{
		ID:        "E11",
		Title:     satTitle,
		Aliases:   []string{"saturate"},
		Shards:    satShards,
		Platforms: boardNames,
		Run:       satShard,
		Merge:     satMerge,
	})
	Register(Scenario{
		ID:      "E12",
		Title:   schedTitle,
		Aliases: []string{"sched"},
		Shards:  schedShards,
		Run:     schedShard,
		Merge:   schedMerge,
	})
	Register(Scenario{
		ID:        "E13",
		Title:     scaleTitle,
		Aliases:   []string{"scaleout"},
		Shards:    scaleShards,
		Platforms: boardNames,
		Run:       scaleShard,
		Merge:     scaleMerge,
	})
	Register(Scenario{
		ID:      "E14",
		Title:   routeTitle,
		Aliases: []string{"route"},
		Shards:  routeShards,
		Run:     routeShard,
		Merge:   routeMerge,
	})
	Register(Scenario{
		ID:      "E15",
		Title:   chaosTitle,
		Aliases: []string{"chaos"},
		Shards:  chaosShards,
		Run:     chaosShard,
		Merge:   chaosMerge,
	})
	Register(Scenario{
		ID:      "E16",
		Title:   diurnalTitle,
		Aliases: []string{"diurnal"},
		Shards:  diurnalShards,
		Run:     diurnalShard,
		Merge:   diurnalMerge,
	})
	Register(Scenario{
		ID:      "E17",
		Title:   planTitle,
		Aliases: []string{"plan"},
		Run:     planShard,
	})
	Register(Scenario{
		ID:      "A1",
		Title:   "CRC read-back overhead on the foreground transfer",
		Aliases: []string{"crc"},
		Run:     single(AblationCRC),
	})
	Register(Scenario{
		ID:      "A2",
		Title:   "what limits the plateau at 280 MHz",
		Aliases: []string{"knee"},
		Run:     AblationKnee,
	})
	Register(Scenario{
		ID:      "A3",
		Title:   "RobustGuard recovery cost after an over-clock failure",
		Aliases: []string{"guard"},
		Run:     single(AblationRobustGuard),
	})
	Register(Scenario{
		ID:      "A4",
		Title:   "reconfiguration under accelerator memory traffic (280 MHz)",
		Aliases: []string{"contention"},
		Run:     single(AblationContention),
	})
	Register(Scenario{
		ID:      "A5",
		Title:   "SEU scrubbing vs full reload (200 MHz)",
		Aliases: []string{"scrub"},
		Run:     single(AblationScrub),
	})
}
