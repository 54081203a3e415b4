package cluster

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ChaosConfig attaches a fault schedule and the fleet's self-healing
// machinery to a run. The schedule is applied on the arrival timeline; the
// health layer is entirely deterministic — probes and ejection windows are
// functions of arrival times and board state, never of wall clocks — so a
// chaos run stays a pure function of (seed, trace, fleet config).
type ChaosConfig struct {
	// Schedule is the fault storm, time-ordered (chaos.Config.Schedule
	// emits it sorted; hand-built schedules must be sorted too).
	Schedule []chaos.Event
	// ProbeEvery is the health-probe cadence on the arrival timeline:
	// probes detect recovered boards and crashed boards nobody routed to
	// (0 = 20 ms).
	ProbeEvery sim.Duration
	// Hedge duplicates deadline-bearing requests onto a second eligible
	// board after the primary admit — tail insurance that burns capacity.
	Hedge bool
}

// The health layer's fixed thresholds.
const (
	// healthTimeout ejects a board whose outstanding work has made no
	// progress for this long (missed-completion signal: above a cold-cache
	// staging pause, below a whole outage).
	healthTimeout = 50 * sim.Millisecond
	// degradedFor is the outlier-ejection window after a CRC-verdict
	// signal: the board is routed around while it repairs.
	degradedFor = 25 * sim.Millisecond
	// throttleC is the die temperature at which a board derates its
	// over-clock to nominal and is ejected as thermally degraded until the
	// die cools (the excursion regime the `-hot` presets model).
	throttleC = 70.0
	// throttleHystC is the cool-down hysteresis below throttleC before a
	// throttled board restores its over-clock.
	throttleHystC = 5.0
)

// Validate checks the schedule against the fleet shape.
func (c *ChaosConfig) Validate(boards int) error {
	for i, ev := range c.Schedule {
		if ev.Board < 0 || ev.Board >= boards {
			return fmt.Errorf("cluster: chaos event %d targets board %d of a %d-board fleet", i, ev.Board, boards)
		}
		if i > 0 && ev.At < c.Schedule[i-1].At {
			return fmt.Errorf("cluster: chaos schedule not time-ordered at event %d", i)
		}
	}
	if c.ProbeEvery < 0 {
		return fmt.Errorf("cluster: chaos probe interval must be non-negative")
	}
	return nil
}

func (c *ChaosConfig) probeEvery() sim.Duration {
	if c.ProbeEvery > 0 {
		return c.ProbeEvery
	}
	return 20 * sim.Millisecond
}

// health is the fleet's per-board health state. Down means "refuses
// connections" (learned from refused offers and periodic probes, the way a
// front-end learns it, not from the schedule directly); Degraded means
// "up but ejected for now" (CRC alarm, thermal throttle, or stalled
// completions).
type health struct {
	cfg *ChaosConfig

	down          []bool
	throttled     []bool
	degradedUntil []sim.Duration
	lastDone      []int
	lastProgress  []sim.Duration

	nextEvent int
	nextProbe sim.Duration
}

func newHealth(cfg *ChaosConfig, boards int) *health {
	return &health{
		cfg:           cfg,
		down:          make([]bool, boards),
		throttled:     make([]bool, boards),
		degradedUntil: make([]sim.Duration, boards),
		lastDone:      make([]int, boards),
		lastProgress:  make([]sim.Duration, boards),
		nextProbe:     cfg.probeEvery(),
	}
}

// degraded reports whether board i is currently ejected as an outlier.
func (h *health) degraded(i int, now sim.Duration, outstanding int) bool {
	if h.throttled[i] || h.degradedUntil[i] > now {
		return true
	}
	return outstanding > 0 && now-h.lastProgress[i] > healthTimeout
}

// downCount is the autoscaler's dead-capacity signal.
func (h *health) downCount() int {
	n := 0
	for _, d := range h.down {
		if d {
			n++
		}
	}
	return n
}

// applyChaos injects every scheduled fault due by now. Crashes and
// recoveries act on the board service; thermal excursions drive the board's
// own die and heat gun (the over-clock physics reacts through the platform
// model); CRC glitches corrupt configuration memory and raise the read-back
// alarm, which doubles as the health layer's CRC-verdict signal.
func (f *Fleet) applyChaos(now sim.Duration) error {
	h := f.health
	sched := f.cfg.Chaos.Schedule
	for h.nextEvent < len(sched) && sched[h.nextEvent].At <= now {
		ev := sched[h.nextEvent]
		h.nextEvent++
		b := f.boards[ev.Board]
		if f.obs != nil {
			f.obs.fault(ev)
		}
		switch ev.Kind {
		case chaos.BoardDown:
			b.svc.Crash()
		case chaos.BoardUp:
			b.svc.Recover()
		case chaos.HeatOn:
			// The excursion arrives as a step (heat-gun blast) and the gun
			// servo holds the die there until HeatOff.
			b.plat.Die.SetTempC(ev.TempC)
			b.plat.Gun.SetTargetDie(ev.TempC)
		case chaos.HeatOff:
			b.plat.Gun.Off()
		case chaos.CRCGlitch:
			raised, err := b.svc.RaiseCRCUpset(ev.Frames)
			if err != nil {
				return fmt.Errorf("cluster: board %d: %w", ev.Board, err)
			}
			if raised {
				// Envoy-style outlier ejection on the CRC verdict: route
				// around the board while it repairs.
				until := ev.At + degradedFor
				if until > h.degradedUntil[ev.Board] {
					h.degradedUntil[ev.Board] = until
				}
			}
		default:
			return fmt.Errorf("cluster: unknown chaos event kind %v", ev.Kind)
		}
	}
	return nil
}

// updateHealth advances the deterministic health machinery to the arrival
// instant: completion-progress tracking, thermal throttling with
// hysteresis, and the periodic probes that detect crashes and recoveries
// the routing path never touched.
func (f *Fleet) updateHealth(now sim.Duration) error {
	h := f.health
	for i, b := range f.boards {
		if done := b.svc.Done(); done != h.lastDone[i] || b.svc.Outstanding() == 0 {
			h.lastDone[i] = done
			h.lastProgress[i] = now
		}
		t := b.plat.Die.TempC()
		switch {
		case !h.throttled[i] && t >= throttleC:
			h.throttled[i] = true
			// Protect the configuration path: derate the over-clock to the
			// platform nominal until the die cools (at 200 MHz no physical
			// temperature corrupts the data path, but a real deployment
			// throttles on the control-path margin, not the failure point).
			if err := f.setBoardFreq(b, b.profile.Clock.NominalMHz); err != nil {
				return fmt.Errorf("cluster: board %d throttle: %w", i, err)
			}
			if f.obs != nil {
				f.obs.throttle(now, i, true, t)
			}
		case h.throttled[i] && t < throttleC-throttleHystC:
			h.throttled[i] = false
			if err := f.setBoardFreq(b, f.cfg.FreqMHz); err != nil {
				return fmt.Errorf("cluster: board %d unthrottle: %w", i, err)
			}
			if f.obs != nil {
				f.obs.throttle(now, i, false, t)
			}
		}
	}
	for now >= h.nextProbe {
		for i, b := range f.boards {
			was := h.down[i]
			h.down[i] = b.svc.Crashed()
			if f.obs != nil && was != h.down[i] {
				f.obs.probe(now, i, h.down[i])
			}
		}
		h.nextProbe += h.cfg.probeEvery()
	}
	return nil
}

// setBoardFreq re-programs one board's over-clock domain (no-op for fleets
// already at nominal).
func (f *Fleet) setBoardFreq(b *board, mhz float64) error {
	if f.cfg.FreqMHz <= 0 || mhz <= 0 {
		return nil
	}
	_, err := b.ctrl.SetFrequencyMHz(mhz)
	return err
}

// route assigns one arrival: pick, fail over on refused connections, admit,
// optionally hedge. It reports whether the request was admitted somewhere.
// Without a chaos layer this reduces exactly to the historical pick-and-
// offer path.
func (f *Fleet) route(views []BoardView, req workload.Request, stats *FleetStats) (bool, error) {
	retries := 0
	for {
		pick := f.router.Pick(views, req)
		if pick == -1 {
			stats.Unroutable++
			if f.obs != nil {
				f.obs.routeEvent(obs.EvUnroutable, req.At, req.RP+" "+req.ASP)
			}
			return false, nil
		}
		if pick < 0 || pick >= len(f.boards) || !eligible(views[pick]) {
			return false, fmt.Errorf("cluster: router %s picked ineligible board %d for %s@%s",
				f.router.Name(), pick, req.ASP, req.RP)
		}
		b := f.boards[pick]
		if f.health != nil && b.svc.Crashed() {
			// Connection refused: the contact attempt is itself the failure
			// detector. Mark the board down and fail over.
			f.health.down[pick] = true
			views[pick].Down = true
			if retries < len(f.boards)-1 { // fail over to every other board once
				retries++
				stats.FailedOver++
				if f.obs != nil {
					f.obs.routeEvent(obs.EvFailover, req.At, fmt.Sprintf("board%d refused", pick))
				}
				continue
			}
			stats.Unroutable++
			if f.obs != nil {
				f.obs.routeEvent(obs.EvUnroutable, req.At, req.RP+" "+req.ASP)
			}
			return false, nil
		}
		b.assigned++
		admitted, err := b.svc.Offer(req)
		if err != nil {
			return false, fmt.Errorf("cluster: board %d: %w", pick, err)
		}
		if admitted && f.health != nil && f.cfg.Chaos.Hedge && req.Deadline > 0 {
			f.hedge(views, pick, req, stats)
		}
		// The persistent view learns the assignment only after any hedge
		// pick, which must see the arrival-instant snapshot (the order the
		// per-arrival rebuild used to establish).
		views[pick].Assigned = b.assigned
		return admitted, nil
	}
}

// hedge issues a duplicate offer for a deadline-bearing request onto the
// next eligible board: if the primary's board stalls or dies, the hedge
// still meets the deadline. The duplicate is real work — it shows up in the
// per-board Offered/Completed counters — bought deliberately as tail
// insurance; Hedged counts the premiums paid.
func (f *Fleet) hedge(views []BoardView, primary int, req workload.Request, stats *FleetStats) {
	masked := views[primary]
	views[primary].Down = true
	pick := f.router.Pick(views, req)
	views[primary] = masked
	if pick < 0 || pick >= len(f.boards) || pick == primary || !eligible(views[pick]) {
		return
	}
	b := f.boards[pick]
	if b.svc.Crashed() {
		return
	}
	if admitted, err := b.svc.Offer(req); err == nil && admitted {
		b.assigned++
		views[pick].Assigned = b.assigned
		stats.Hedged++
		if f.obs != nil {
			f.obs.routeEvent(obs.EvHedge, req.At, fmt.Sprintf("board%d", pick))
		}
	}
}
