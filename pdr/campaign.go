package pdr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/workpool"
)

// Re-exported campaign types.
type (
	// Report is one regenerated paper artefact.
	Report = experiments.Report
	// Scenario is a registered, discoverable experiment.
	Scenario = experiments.Scenario
)

// Scenarios lists every registered scenario in suite order (E1…E9, A1…A5).
func Scenarios() []Scenario { return experiments.All() }

// BoardVariant selects the simulated board build a campaign runs on. Every
// registered platform profile is a valid variant (see Platforms), so the
// value is simply the profile name; these constants name the built-ins.
type BoardVariant string

const (
	// ZedBoard is the calibrated paper setup: 25 °C ambient, fast
	// test-friendly thermal time constant.
	ZedBoard BoardVariant = "zedboard"
	// ZedBoardSlowThermal is the ZedBoard preset with the physical 2 s
	// thermal time constant.
	ZedBoardSlowThermal BoardVariant = "zedboard-slow-thermal"
	// ZedBoardHot is the ZedBoard preset in a 45 °C chamber
	// (harsh-environment deployments).
	ZedBoardHot BoardVariant = "zedboard-hot"
	// ZyboZ710 is the smaller Zybo Z7-10 board (xc7z010 fabric, ≈550 MB/s
	// memory plateau).
	ZyboZ710 BoardVariant = "zybo-z7-10"
	// ZC706 is the larger ZC706 board (xc7z045 fabric, ≈990 MB/s plateau,
	// faster speed grade).
	ZC706 BoardVariant = "zc706"
)

// ApplyBoardVariant resolves a variant into an experiments configuration —
// the same resolution a campaign performs. Exposed for tests and tooling
// that build experiment Envs directly.
func ApplyBoardVariant(v BoardVariant, cfg *experiments.Config) error { return v.apply(cfg) }

// apply resolves the variant against the platform registry, so the list of
// valid names (and the error message) can never drift from the profiles
// actually registered.
func (v BoardVariant) apply(cfg *experiments.Config) error {
	if _, ok := platform.Lookup(string(v)); !ok {
		return fmt.Errorf("pdr: unknown board variant %q (registered platforms: %s)",
			v, strings.Join(platform.Names(), ", "))
	}
	cfg.Platform = string(v)
	return nil
}

// CampaignOption configures NewCampaign.
type CampaignOption func(*Campaign)

// WithCampaignSeed fixes the deterministic seed (default 42, the suite's
// reference seed).
func WithCampaignSeed(seed uint64) CampaignOption {
	return func(c *Campaign) { c.cfg.Seed = seed }
}

// WithWorkers sets the campaign's goroutine budget. The campaign runs
// min(n, units) shard workers, each owning fully independent Systems
// (their own simulation kernels — the kernel itself stays single-threaded
// by design), and gives every unit max(1, n/shard workers) goroutines for
// its own fan-out: fleet epochs, the planner's verifying simulations.
// n ≤ 0 means one per available CPU. Output is byte-identical at every
// budget.
func WithWorkers(n int) CampaignOption {
	return func(c *Campaign) { c.workers = n }
}

// WithScenarios restricts the campaign to the given scenario IDs or aliases
// (default: the full registered suite).
func WithScenarios(ids ...string) CampaignOption {
	return func(c *Campaign) { c.ids = append([]string(nil), ids...) }
}

// WithBoardVariant selects the simulated board build.
func WithBoardVariant(v BoardVariant) CampaignOption {
	return func(c *Campaign) { c.variant = v }
}

// WithParam sets one scenario parameter by key, e.g. WithParam("E13.fleet",
// "1,2,4") or WithParam("E17.p99", "10"). The keys, their readers, defaults
// and validity rules are the experiments parameter table (`pdrbench -list`
// prints it). Run returns the first invalid key or value before any shard
// starts.
func WithParam(key, value string) CampaignOption {
	return func(c *Campaign) {
		if c.err == nil {
			c.err = c.cfg.Set(key, value)
		}
	}
}

// WithTracer attaches a deterministic tracing/metrics collector to the
// campaign's fleet scenarios (E13–E16): each shard's fleet records
// request spans, control-plane events and sim-time gauge series under a
// schedule-independent key. Tracing never perturbs the reports — they
// stay byte-identical with or without it — and the tracer's exports are
// byte-identical at every worker count. See NewTracer.
func WithTracer(t *Tracer) CampaignOption {
	return func(c *Campaign) { c.cfg.Obs = t }
}

// Campaign runs a set of registered scenarios, sharded across a pool of
// workers. Every shard is a pure function of the campaign configuration
// and runs on its own freshly booted System, and shard reports merge by
// index, so the output is bit-identical whatever the worker count — a
// parallel campaign is just a faster sequential one.
type Campaign struct {
	cfg     experiments.Config
	workers int
	ids     []string
	variant BoardVariant
	err     error // the first WithParam failure, returned by Run
}

// NewCampaign builds a campaign; Run executes it.
func NewCampaign(opts ...CampaignOption) *Campaign {
	c := &Campaign{cfg: experiments.Config{Seed: 42}, workers: 1}
	for _, fn := range opts {
		fn(c)
	}
	return c
}

// CampaignResult is the deterministic outcome of a campaign run.
type CampaignResult struct {
	// Reports holds one merged report per selected scenario, in selection
	// order (suite order when no WithScenarios option was given);
	// duplicate selections are collapsed to the first occurrence.
	Reports []*Report
	// Seed is the campaign seed the reports were generated at.
	Seed uint64
	// Workers and Units record the executed schedule's shape (they do not
	// affect Reports).
	Workers int
	Units   int
	// Pool is the campaign worker pool's wall-clock utilization, one entry
	// per worker (units claimed, busy time); Elapsed is the whole run's
	// wall clock. Schedule facts for profiling — like Workers and Units
	// they never affect Reports or their JSON encoding.
	Pool    []workpool.WorkerCount
	Elapsed time.Duration

	// cfg is the resolved experiments configuration, kept so Markdown's
	// shard column reflects grid/variant overrides.
	cfg experiments.Config
}

// Render formats every report as an aligned text table.
func (r *CampaignResult) Render() string {
	var b strings.Builder
	for _, rep := range r.Reports {
		b.WriteString(rep.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the reports as one stable JSON document.
func (r *CampaignResult) JSON() ([]byte, error) { return experiments.EncodeJSON(r.Reports) }

// Markdown renders the reports as the EXPERIMENTS.md document.
func (r *CampaignResult) Markdown() string {
	return experiments.MarkdownSuite(r.Reports, r.cfg)
}

type campaignUnit struct {
	scen  int
	shard int
}

// Run executes the campaign. It honours ctx: cancellation aborts workers
// between measurement points and Run returns the context's error.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, fmt.Errorf("pdr: %w", c.err)
	}
	ecfg := c.cfg
	if err := c.variant.apply(&ecfg); err != nil {
		return nil, err
	}

	scens := experiments.All()
	if len(c.ids) > 0 {
		scens = scens[:0:0]
		seen := make(map[string]bool)
		for _, id := range c.ids {
			s, ok := experiments.Lookup(id)
			if !ok {
				return nil, fmt.Errorf("pdr: unknown scenario %q (want %s)", id, experiments.KeyList())
			}
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			scens = append(scens, s)
		}
	}

	// The fixed shard plan: one unit per (scenario, shard), independent of
	// the worker count.
	var units []campaignUnit
	parts := make([][]*Report, len(scens))
	for si, s := range scens {
		n := s.Shards(ecfg)
		parts[si] = make([]*Report, n)
		for k := 0; k < n; k++ {
			units = append(units, campaignUnit{scen: si, shard: k})
		}
	}

	budget := c.workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	var workers int
	workers, ecfg.Workers = workpool.Split(budget, len(units))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	pool := &workpool.Counters{}
	errs := make([]error, len(units))
	workpool.RunCounted(len(units), workers, pool, func(i int) {
		u := units[i]
		if err := runCtx.Err(); err != nil {
			errs[i] = err
			return
		}
		u0 := time.Now()
		env, err := experiments.NewEnvWith(scens[u.scen].EnvConfig(ecfg, u.shard))
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		rep, err := scens[u.scen].Run(runCtx, env, u.shard)
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		rep.SimEvents += env.Platform.Kernel.Fired()
		rep.WallMS = float64(time.Since(u0)) / float64(time.Millisecond)
		parts[u.scen][u.shard] = rep
	})

	// Deterministic error selection: the lowest-index real failure wins;
	// bare cancellations (a worker aborted because another unit failed, or
	// the caller cancelled) only surface when nothing else went wrong.
	var cancelled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return nil, fmt.Errorf("pdr: campaign %s shard %d: %w", scens[units[i].scen].ID, units[i].shard, err)
	}
	if cancelled != nil {
		return nil, cancelled
	}

	res := &CampaignResult{Seed: ecfg.Seed, Workers: workers, Units: len(units), cfg: ecfg}
	for si, s := range scens {
		rep := parts[si][0]
		if s.Merge != nil {
			var err error
			rep, err = s.Merge(ecfg, parts[si])
			if err != nil {
				return nil, fmt.Errorf("pdr: campaign %s merge: %w", s.ID, err)
			}
			// Merge builds a fresh report from the parts' tables; the
			// profiling tallies fold in here (sim events sum, wall clock
			// sums the shards' costs even when they overlapped on workers).
			for _, p := range parts[si] {
				rep.SimEvents += p.SimEvents
				rep.WallMS += p.WallMS
			}
		}
		res.Reports = append(res.Reports, rep)
	}
	res.Pool = pool.Snapshot()
	res.Elapsed = time.Since(t0)
	return res, nil
}
