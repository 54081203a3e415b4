package experiments

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E16 "diurnal": reactive vs predictive autoscaling over one simulated
// day. The arrival stream follows a diurnal rate curve — a quiet night, a
// morning ramp, a midday plateau, an evening tail — with a flash crowd
// spiking on top of the busy afternoon, and every request carries an SLO
// class (latency-sensitive or batch, each with its own deadline). Both
// policies serve the identical stream on identical cold-cache fleets; the
// only difference is the scaler's decision rule, so the table isolates
// what forecasting buys: the reactive policy grows one board per window
// after the spike's shed already happened, while the predictive policy
// extrapolates the building trend and pre-provisions, so its shed-rate
// through the flash window is the headline comparison. Cold caches make
// every scale-up pay a visible staging penalty — capacity added late is
// capacity that also starts cold.
//
// Shard plan: one shard per scaler policy (Config.Scaler restricts the
// run to a single policy). Each shard replays the same stream — generated
// from the campaign seed or imported from Config.TraceFile — so the
// policies face identical traffic.

const (
	diurnalTitle = "diurnal: reactive vs predictive autoscaling over a simulated day with a flash crowd"

	// One simulated "hour" is compressed to 20 ms so the whole day fits a
	// sub-second horizon; the autoscaler window matches the hour, so the
	// boards-over-time series reads directly as a daily staffing chart.
	diurnalHour = 20 * sim.Millisecond
	diurnalDay  = 24 * diurnalHour

	// The fleet and the predictive policy's planning rate: six boards
	// cover the flash peak — if the scaler has them active in time. The
	// plan rate sits far below the warm single-board knee because a board
	// in a diurnal fleet keeps re-staging cold images and serves behind a
	// deliberately shallow queue.
	diurnalFleetSize = 6
	diurnalBoardRate = 200

	// diurnalQueueCap keeps the admission queues shallow: excess demand
	// surfaces as shed (the headline metric) within the window it arrives,
	// instead of hiding in a deep queue as tail latency.
	diurnalQueueCap = 8

	// The flash crowd: +1200 req/s ramping over one hour at 16:00, holding
	// two hours, decaying over one — a ~4× spike over the afternoon base,
	// faster than any forecast horizon, so what the policies race on is
	// recovery: one window of observation versus one board per window.
	diurnalFlashPeak  = 1200
	diurnalFlashStart = 16
	diurnalFlashHours = 4

	// batchDeadline is the batch class's relaxed budget; the latency class
	// keeps the interactive serveDeadline.
	batchDeadline = 120 * sim.Millisecond
)

// diurnalHoursAt converts a whole-hour mark to stream time.
func diurnalHoursAt(n int) sim.Duration { return sim.Duration(n) * diurnalHour }

// diurnalCurve is the day's rate profile (req/s at each hour anchor) plus
// the flash crowd.
func diurnalCurve() *workload.RateCurve {
	return &workload.RateCurve{
		Points: []workload.RatePoint{
			{At: diurnalHoursAt(0), RatePerSec: 150},
			{At: diurnalHoursAt(5), RatePerSec: 120},
			{At: diurnalHoursAt(8), RatePerSec: 350},
			{At: diurnalHoursAt(12), RatePerSec: 450},
			{At: diurnalHoursAt(16), RatePerSec: 420},
			{At: diurnalHoursAt(20), RatePerSec: 250},
			{At: diurnalHoursAt(24), RatePerSec: 150},
		},
		Flashes: []workload.Flash{{
			Start:      diurnalHoursAt(diurnalFlashStart),
			Ramp:       diurnalHour,
			Hold:       2 * diurnalHour,
			Decay:      diurnalHour,
			PeakPerSec: diurnalFlashPeak,
		}},
	}
}

// diurnalSpec is the day's arrival law: the rate curve with a
// latency-heavy SLO-class mix (interactive traffic dominates a diurnal
// shape; batch rides along at a quarter of the volume).
func diurnalSpec() workload.ArrivalSpec {
	return workload.ArrivalSpec{
		Curve:    diurnalCurve(),
		Deadline: serveDeadline,
		Classes: []workload.SLOClass{
			{Name: "latency", Deadline: serveDeadline, Weight: 3},
			{Name: "batch", Deadline: batchDeadline, Weight: 1},
		},
	}
}

// diurnalBoards is E16's fleet build: a homogeneous campaign-platform
// fleet sized to cover the flash peak.
func diurnalBoards(cfg Config) []cluster.BoardSpec {
	boards := make([]cluster.BoardSpec, diurnalFleetSize)
	for i := range boards {
		boards[i] = cluster.BoardSpec{Platform: cfg.Platform}
	}
	return boards
}

// DiurnalTrace returns E16's arrival stream for a campaign configuration:
// the recorded day Config.TraceFile names, otherwise the stream generated
// from the seed. It is exported so `pdrbench -trace-out` can persist the
// stream as a versioned trace file that a later run replays
// byte-identically.
func DiurnalTrace(cfg Config) (workload.Trace, error) {
	if cfg.TraceFile != "" {
		return readTraceFile(cfg.TraceFile)
	}
	rps, err := cluster.CommonRPs(diurnalBoards(cfg))
	if err != nil {
		return nil, err
	}
	spec := diurnalSpec()
	return spec.GenerateUntil(cfg.Seed^0x0E16, diurnalDay, rps, satASPs)
}

// readTraceFile imports a versioned trace file. Only a regular file is
// read, so a device or FIFO path fails instead of blocking.
func readTraceFile(path string) (workload.Trace, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("trace file %s is not a regular file", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := workload.ImportTrace(data)
	if err != nil {
		return nil, fmt.Errorf("trace file %s: %w", path, err)
	}
	return tr, nil
}

// diurnalPolicies is the scaler-policy axis: every policy, or just the
// one Config.Scaler selects.
func diurnalPolicies(cfg Config) []string {
	if cfg.Scaler != "" {
		return []string{cfg.Scaler}
	}
	return cluster.ScalerPolicies()
}

func diurnalShards(cfg Config) int { return len(diurnalPolicies(cfg)) }

var diurnalHeader = []string{
	"scaler", "arrivals", "completed", "shed", "flash shed", "goodput [req/s]",
	"p99 [ms]", "latency misses", "batch misses", "scale-ups", "cold stage/up [ms]",
	"active peak/final",
}

// diurnalFlashWindow sums offered and shed over the windows the flash
// crowd spans (hours 16–20 of the scaler's trajectory).
func diurnalFlashWindow(wins []cluster.WindowStat) (offered, shed int) {
	for w := diurnalFlashStart; w < diurnalFlashStart+diurnalFlashHours && w < len(wins); w++ {
		offered += wins[w].Offered
		shed += wins[w].Shed
	}
	return offered, shed
}

func diurnalShard(ctx context.Context, src *Boards, shard int) (*Report, error) {
	policies := diurnalPolicies(src.Cfg)
	if shard < 0 || shard >= len(policies) {
		return nil, fmt.Errorf("experiments: diurnal shard %d out of range", shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	policy := policies[shard]
	tr, err := DiurnalTrace(src.Cfg)
	if err != nil {
		return nil, err
	}
	f, err := cluster.New(cluster.FleetConfig{
		Boards:  diurnalBoards(src.Cfg),
		Seed:    src.Cfg.Seed,
		FreqMHz: serveFreqMHz,
		Router:  cluster.LeastOutstanding(),
		Workers: src.Cfg.Workers,
		Trace:   obsFleet(src.Cfg, "E16", shard, policy),
		Autoscaler: &cluster.AutoscalerConfig{
			Window: diurnalHour,
			Min:    1,
			Max:    diurnalFleetSize,
			ShedHi: 0.01,
			// Growth is shed-driven in this scenario: the p99 trigger sits
			// above anything the shallow queues can produce, because the
			// cold-staging tail a diurnal fleet always exhibits would
			// otherwise pin the reactive policy at Max from the first cold
			// morning and erase the staffing curve being measured.
			P99HiUS:         1e6,
			ShedLo:          0,
			P99LoUS:         serveDeadline.Microseconds(),
			Policy:          cluster.ScalerPolicy(policy),
			BoardRatePerSec: diurnalBoardRate,
		},
		// Cold caches on purpose: a board the scaler activates late also
		// starts staging bitstreams from scratch, so the cold-stage column
		// prices every scale-up.
		Service: cluster.ServiceTemplate{QueueCap: diurnalQueueCap, Images: src.images},
	})
	if err != nil {
		return nil, err
	}
	st, err := f.Serve(tr)
	if err != nil {
		return nil, err
	}
	agg := st.Aggregate
	scaleUps := 0
	for _, ev := range st.ScaleEvents {
		if ev.To > ev.From {
			scaleUps++
		}
	}
	coldPerUp := 0.0
	if scaleUps > 0 {
		coldPerUp = agg.StageTime.Seconds() * 1000 / float64(scaleUps)
	}
	flashOffered, flashShed := diurnalFlashWindow(st.Windows)
	flashFrac := 0.0
	if flashOffered > 0 {
		flashFrac = float64(flashShed) / float64(flashOffered)
	}
	classMiss := func(name string) int {
		if c, ok := agg.Classes[name]; ok {
			return c.DeadlineMisses
		}
		return 0
	}
	rep := &Report{ID: "E16", Title: diurnalTitle, SimEvents: st.KernelEvents}
	rep.Rows = append(rep.Rows, []string{
		policy,
		strconv.Itoa(st.Arrivals), strconv.Itoa(agg.Completed), strconv.Itoa(agg.Shed),
		fmt.Sprintf("%.1f%%", 100*flashFrac),
		f0(st.GoodputPerSec()),
		ms(agg.SojournUS.Quantile(0.99)),
		strconv.Itoa(classMiss("latency")), strconv.Itoa(classMiss("batch")),
		strconv.Itoa(scaleUps),
		fmt.Sprintf("%.1f", coldPerUp),
		fmt.Sprintf("%d/%d", st.PeakActive, st.FinalActive),
	})
	// Figure series: the staffing chart (active boards per hour), the
	// per-hour shed rate, and the observed (plus, for the predictive
	// policy, forecast) rate trajectory.
	boards := sim.Series{Name: "e16_" + policy + "_boards", XLabel: "hour", YLabel: "active_boards"}
	shedS := sim.Series{Name: "e16_" + policy + "_shed", XLabel: "hour", YLabel: "shed_fraction"}
	rate := sim.Series{Name: "e16_" + policy + "_rate", XLabel: "hour", YLabel: "observed_req_per_s"}
	fcast := sim.Series{Name: "e16_" + policy + "_forecast", XLabel: "hour", YLabel: "forecast_req_per_s"}
	for w, win := range st.Windows {
		hour := float64(w + 1)
		boards.Append(hour, float64(win.Active))
		frac := 0.0
		if win.Offered > 0 {
			frac = float64(win.Shed) / float64(win.Offered)
		}
		shedS.Append(hour, frac)
		rate.Append(hour, win.ObservedPerSec)
		if win.ForecastPerSec > 0 {
			fcast.Append(hour, win.ForecastPerSec)
		}
	}
	rep.Series = append(rep.Series, boards, shedS, rate)
	if len(fcast.Points) > 0 {
		rep.Series = append(rep.Series, fcast)
	}
	// The merge's comparison metrics, one summary series per policy.
	summary := sim.Series{Name: "e16_" + policy, XLabel: "metric_index", YLabel: "value"}
	summary.Append(0, flashFrac)
	summary.Append(1, st.GoodputPerSec())
	summary.Append(2, agg.SojournUS.Quantile(0.99))
	summary.Append(3, float64(classMiss("latency")))
	rep.Series = append(rep.Series, summary)
	return rep, nil
}

func diurnalMerge(cfg Config, prof *platform.Profile, parts []*Report) (*Report, error) {
	rep := concat("E16", diurnalTitle, diurnalHeader, parts)
	re := rep.points("e16_" + string(cluster.ScalerReactive))
	pr := rep.points("e16_" + string(cluster.ScalerPredictive))
	if len(re) == 4 && len(pr) == 4 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"through the flash crowd the predictive scaler sheds %.1f%% vs reactive's %.1f%% — the spike outruns any forecast, but the forecast recovers in one window of observation while the reactive policy pays one shedding window per board it is short (goodput %.0f vs %.0f req/s)",
			100*pr[0].Y, 100*re[0].Y, pr[1].Y, re[1].Y))
	}
	curve := diurnalCurve()
	source := "generated from the campaign seed"
	if cfg.TraceFile != "" {
		source = fmt.Sprintf("replayed from %s", cfg.TraceFile)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"one simulated day (24 h compressed to %v), diurnal base rate %g–%g req/s with a +%d req/s flash crowd at hour %d; stream %s, identical for every policy",
		diurnalDay, 120.0, 450.0, diurnalFlashPeak, diurnalFlashStart, source))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d× %s fleet, cold caches, autoscaler window %v bounds 1…%d, predictive planning at %d req/s per board (Holt smoothing); SLO classes latency (%v) 3:1 over batch (%v); curve peak %.0f req/s",
		diurnalFleetSize, prof.Name, diurnalHour, diurnalFleetSize,
		diurnalBoardRate, serveDeadline, batchDeadline, curve.Peak()))
	return rep, nil
}
