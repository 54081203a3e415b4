package pdr

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workpool"
)

// Re-exported campaign types.
type (
	// Report is one regenerated paper artefact.
	Report = experiments.Report
	// Scenario is a registered, discoverable experiment.
	Scenario = experiments.Scenario
)

// Scenarios lists every registered scenario in suite order (E1…E17, A1…A5).
func Scenarios() []Scenario { return experiments.All() }

// BoardVariant selects the simulated board build a campaign runs on. Every
// registered platform profile is a valid variant (see Platforms), so the
// value is simply the profile name; these constants name the built-ins. An
// unregistered name fails the campaign before any shard runs.
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
	return func(c *Campaign) { c.cfg.Platform = string(v) }
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
// and boots its own fresh simulated boards, and shard reports merge by
// index, so the output is bit-identical whatever the worker count — a
// parallel campaign is just a faster sequential one.
type Campaign struct {
	cfg     experiments.Config
	workers int
	ids     []string
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

// Run executes the campaign through the experiments executor. It honours
// ctx: cancellation aborts workers between measurement points and Run
// returns the context's error.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if c.err != nil {
		return nil, fmt.Errorf("pdr: %w", c.err)
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
	ex, err := experiments.Execute(ctx, scens, c.cfg, c.workers)
	if err != nil {
		return nil, err
	}
	return &CampaignResult{
		Reports: ex.Reports,
		Seed:    c.cfg.Seed,
		Workers: ex.Workers,
		Units:   ex.Units,
		Pool:    ex.Pool,
		Elapsed: ex.Elapsed,
		cfg:     c.cfg,
	}, nil
}
