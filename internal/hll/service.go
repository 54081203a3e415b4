package hll

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ServiceConfig is a board's service settings, the one declaration the
// fleet template, the pdr options and the scenarios all share. NewService
// resolves it once, against the controller's own platform profile, so a
// mixed fleet gives every board the budget and staging rate its platform
// affords. The zero value is FCFS dispatch, the profile's cache budget,
// 32-deep per-RP queues and scrub repair.
type ServiceConfig struct {
	// Policy is the dispatch policy name ("" = fcfs; see
	// sched.PolicyNames).
	Policy string
	// CacheBudgetBytes bounds the DRAM-resident bitstream cache: 0 uses
	// the profile's derived budget, < 0 disables caching entirely (the
	// no-cache ablation: every reconfiguration re-stages its image from
	// the SD card at the profile rate), > 0 is an explicit budget.
	CacheBudgetBytes int64
	// CacheBudgetImages, when > 0, overrides CacheBudgetBytes with n ×
	// this board's image size — the portable way to give a mixed fleet
	// comparably sized caches.
	CacheBudgetImages int
	// QueueCap is the per-RP admission-control depth (0 = 32, < 0 =
	// unbounded).
	QueueCap int
	// Prewarm stages the listed ASPs' images for every partition into
	// the cache before the stream starts — the steady-state residency a
	// long-running deployment has. The staging time is paid before the
	// measurement window opens; a disabled cache ignores it (the no-cache
	// ablation pays full staging on every reconfiguration by design).
	Prewarm []string
	// Repair selects how a raised CRC alarm is cleared before the resident
	// ASP runs again: "scrub" (default) rewrites only the damaged frames
	// through the ICAP, "reload" performs a full partial reconfiguration.
	Repair string
	// SketchQuantiles switches the latency samples (queue wait, service,
	// sojourn) to the memory-bounded sketch backend (sim.Sample.UseSketch)
	// — O(sketch size) memory however long the stream runs, quantiles
	// within the sketch's ≈ 0.78 % relative error bound. The default keeps
	// the exact backend and its byte-identical historical output.
	SketchQuantiles bool
	// UpsetSeed seeds the configuration-memory upset injector RaiseCRCUpset
	// draws from (0 keeps a fixed default stream). A fleet derives it per
	// board and overrides any value set here.
	UpsetSeed uint64
	// Images is the image store cache misses build from, shared with the
	// other services of a fleet; nil gives the service its own. It saves
	// host work only: simulated staging and cache behaviour do not depend
	// on it. A fleet sets its own store and overrides any value set here.
	Images *ImageStore
}

// Validate rejects unknown policy and repair names without building
// anything, so a misconfigured fleet fails before any board boots.
func (c ServiceConfig) Validate() error {
	if _, err := c.policy(); err != nil {
		return err
	}
	switch c.Repair {
	case "", "scrub", "reload":
		return nil
	}
	return fmt.Errorf("hll: unknown repair mode %q (want scrub|reload)", c.Repair)
}

// policy resolves the dispatch policy name ("" = fcfs).
func (c ServiceConfig) policy() (sched.Policy, error) {
	if c.Policy == "" {
		return sched.FCFS(), nil
	}
	return sched.PolicyByName(c.Policy)
}

// TenantStats is one traffic source's view of a service run. Every offered
// request ends in exactly one of Completed, Shed or Failed.
type TenantStats struct {
	Offered, Completed, Shed, Failed, DeadlineMisses int
}

// ServiceStats extends the framework statistics with the open-loop service
// metrics: admission-control outcomes, sojourn tail latency, deadline
// misses, cache behaviour and staging cost.
type ServiceStats struct {
	Stats
	// Offered counts arrivals; Admitted the ones admission control let in;
	// Shed the rejected ones; Completed the ones that finished compute.
	Offered, Admitted, Shed, Completed int
	// DeadlineMisses counts completions past their request deadline.
	DeadlineMisses int
	// SojournUS samples arrival→completion latency in microseconds — the
	// end-to-end latency whose p99 the saturation sweep watches.
	SojournUS sim.Sample
	// Cache summarises the bitstream cache; StageTime is the total
	// simulated time spent staging images from the backing store.
	Cache     sched.CacheStats
	StageTime sim.Duration
	// Lost counts admitted requests dropped by a board crash (queued or
	// in flight when the board went down). Every offered request still ends
	// in exactly one of Completed, Shed, Failed-at-CRC or Lost.
	Lost int
	// CRCAlarms counts raised read-back alarms; Repairs counts alarms
	// cleared by scrub or reload, and RepairTime is the simulated time those
	// repairs cost.
	CRCAlarms, Repairs int
	RepairTime         sim.Duration
	// Tenants breaks the run down per traffic source.
	Tenants map[string]*TenantStats
	// Classes breaks the run down per SLO class (see workload.SLOClass).
	// Unclassed requests are not recorded here, so classless streams keep
	// the map empty.
	Classes map[string]*TenantStats
}

// TenantNames returns the tenants seen, sorted for stable rendering.
func (s *ServiceStats) TenantNames() []string {
	names := make([]string, 0, len(s.Tenants))
	for n := range s.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClassNames returns the SLO classes seen, sorted for stable rendering.
func (s *ServiceStats) ClassNames() []string {
	names := make([]string, 0, len(s.Classes))
	for n := range s.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Service is the Fig.-1 framework run as an open-loop reconfiguration
// service: arrivals are admitted into per-RP queues as simulated time
// passes, resident-hit requests compute concurrently on their partitions,
// and reconfigurations serialise on the single physical ICAP (guarded by
// Port.BusyUntil), ordered by the dispatch policy. At each dispatch
// instant every eligible resident hit starts before the ICAP is occupied;
// requests arriving while a staging or transfer is in flight wait for the
// dispatcher to come back around (the PS runs one dispatch loop).
type Service struct {
	eng    *engine
	cfg    ServiceConfig
	policy sched.Policy
	queues map[string]*sched.Queue

	stats ServiceStats
	done  int
	// queued mirrors the summed per-RP queue depth, maintained at the
	// admission/dispatch/crash sites so Queued (a per-arrival router
	// signal) is O(1) instead of a walk over the queue map.
	queued int

	// crashed marks the board dead: it refuses offers and dispatches
	// nothing until Recover. epoch invalidates in-flight completion events
	// scheduled before a crash — work lost with the board must not complete
	// after it.
	crashed bool
	epoch   int
	// injector plants the configuration-memory upsets RaiseCRCUpset models
	// (built lazily on first use).
	injector *scrub.Injector

	// Session state (Begin/Offer/AdvanceTo/Drain — Serve drives the same
	// primitives): a fleet front-end owns the arrival stream and this board
	// only sees the requests routed to it. start anchors the session's
	// relative timeline; stage0/cache0 snapshot the prewarm so the closed
	// window reports the measurement only; finished marks the window
	// closed, after which the session rejects further driving.
	started  bool
	finished bool
	start    sim.Time
	stage0   sim.Duration
	cache0   sched.CacheStats

	// onComplete, when set, observes every completion: rel is the completion
	// instant relative to the session start, sojourn the arrival→completion
	// latency. The fleet layer uses it for windowed autoscaling metrics.
	onComplete func(rel, sojourn sim.Duration)

	// tr, when set, records this session's spans and events (session-
	// relative sim time). Every emission site is guarded by a nil check so
	// the disabled path costs one branch and zero allocations. tids maps
	// RP name → trace track.
	tr   *obs.BoardTrace
	tids map[string]int32
}

// NewService validates the configuration, resolves it against the
// controller's platform profile and builds the service: the one place a
// cache budget, queue cap, staging rate or policy name is resolved.
func NewService(ctrl *core.Controller, cfg ServiceConfig) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, _ := cfg.policy() // validated above
	p := ctrl.Platform()
	budget := cfg.CacheBudgetBytes
	switch {
	case cfg.CacheBudgetImages > 0:
		budget = int64(cfg.CacheBudgetImages) * int64(imageBytes(p, p.RPs[0]))
	case budget == 0:
		budget = p.Profile.BitstreamCacheBytes()
	case budget < 0:
		budget = 0 // sched.Cache: 0 disables
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = 32
	}
	s := &Service{
		eng:    newEngine(ctrl, budget, p.Profile.IO.SDBytesPerSec, cfg.Images),
		cfg:    cfg,
		policy: policy,
		queues: make(map[string]*sched.Queue),
	}
	s.stats.Tenants = make(map[string]*TenantStats)
	s.stats.Classes = make(map[string]*TenantStats)
	if cfg.SketchQuantiles {
		s.stats.QueueWaitUS.UseSketch()
		s.stats.ServiceUS.UseSketch()
		s.stats.SojournUS.UseSketch()
	}
	for _, name := range s.eng.order {
		s.queues[name] = sched.NewQueue(queueCap)
	}
	return s, nil
}

// Stats returns the accumulated statistics.
func (s *Service) Stats() ServiceStats { return s.stats }

// Policy returns the active dispatch policy.
func (s *Service) Policy() sched.Policy { return s.policy }

// class returns the per-SLO-class accumulator; nil for unclassed requests
// (callers skip the accounting entirely, keeping classless runs untouched).
func (s *Service) class(name string) *TenantStats {
	if name == "" {
		return nil
	}
	c, ok := s.stats.Classes[name]
	if !ok {
		c = &TenantStats{}
		s.stats.Classes[name] = c
	}
	return c
}

// tenant returns the per-tenant accumulator.
func (s *Service) tenant(name string) *TenantStats {
	t, ok := s.stats.Tenants[name]
	if !ok {
		t = &TenantStats{}
		s.stats.Tenants[name] = t
	}
	return t
}

// Serve runs the whole arrival stream to completion and returns the
// accumulated statistics. The trace must be time-ordered and reference
// known RPs and ASPs (validated up front — an open-loop service checks
// requests at the door, not mid-flight).
//
// Serve is a driver over the session primitives (Begin/Offer/AdvanceTo/
// Drain): the fleet front-end drives the very same loop one arrival at a
// time, so the two paths cannot diverge — there is only one dispatch
// implementation.
func (s *Service) Serve(tr workload.Trace) (ServiceStats, error) {
	if s.started {
		return s.stats, fmt.Errorf("hll: service already consumed (one stream per service)")
	}
	if err := s.validate(tr); err != nil {
		return s.stats, fmt.Errorf("hll: service: %w", err)
	}
	if err := s.Begin(); err != nil {
		return s.stats, err
	}
	now := sim.Duration(-1)
	for _, req := range tr {
		if req.At > now {
			now = req.At
			if err := s.AdvanceTo(now); err != nil {
				s.finish(s.start, s.stage0, s.cache0)
				return s.stats, err
			}
		}
		if _, err := s.Offer(req); err != nil {
			s.finish(s.start, s.stage0, s.cache0)
			return s.stats, err
		}
	}
	return s.Drain()
}

// finish closes the measurement window: makespan, and staging/cache deltas
// relative to the pre-stream snapshot. A closed session stays closed.
func (s *Service) finish(start sim.Time, stage0 sim.Duration, cache0 sched.CacheStats) {
	s.finished = true
	k := s.eng.ctrl.Platform().Kernel
	s.stats.Makespan = k.Now().Sub(start)
	s.stats.StageTime += s.eng.stageTime - stage0
	cs := s.eng.cache.Stats()
	s.stats.Cache.Hits += cs.Hits - cache0.Hits
	s.stats.Cache.Misses += cs.Misses - cache0.Misses
	s.stats.Cache.Evictions += cs.Evictions - cache0.Evictions
	s.stats.Cache.ResidentBytes = cs.ResidentBytes
	s.stats.Cache.PeakBytes = cs.PeakBytes
}

// prewarm stages the configured working set into the cache ahead of the
// measurement window (no ICAP transfers — images land in DRAM only).
func (s *Service) prewarm() error {
	if !s.eng.cache.Enabled() {
		return nil
	}
	for _, name := range s.cfg.Prewarm {
		asp, err := workload.LibraryASP(name)
		if err != nil {
			return err
		}
		for _, rp := range s.eng.order {
			if _, err := s.eng.acquire(asp, s.eng.rps[rp]); err != nil {
				return err
			}
		}
	}
	return nil
}

// validate checks the stream before any simulated time passes: the
// standard trace invariants against this platform's partitions and the
// ASP library.
func (s *Service) validate(tr workload.Trace) error {
	asps := workload.Library()
	names := make([]string, len(asps))
	for i, a := range asps {
		names[i] = a.Name
	}
	return tr.Validate(s.eng.order, names)
}

// admit runs admission control for one arrival.
func (s *Service) admit(req workload.Request, start sim.Time) {
	at := start.Add(req.At)
	it := &sched.Item{
		Seq:    s.stats.Offered,
		At:     at,
		RP:     req.RP,
		ASP:    req.ASP,
		Tenant: req.Tenant,
		Class:  req.Class,
	}
	if req.Deadline > 0 {
		it.Deadline = at.Add(req.Deadline)
	}
	s.stats.Offered++
	t := s.tenant(req.Tenant)
	t.Offered++
	c := s.class(req.Class)
	if c != nil {
		c.Offered++
	}
	q := s.queues[req.RP]
	if q.Offer(it) {
		s.stats.Admitted++
		s.queued++
	} else {
		s.stats.Shed++
		t.Shed++
		if c != nil {
			c.Shed++
		}
		s.done++
		if s.tr != nil {
			s.tr.Event(obs.EvShed, obs.TIDLifecycle, int32(it.Seq), req.At,
				fmt.Sprintf("%s %s q=%d/%d", req.RP, req.ASP, q.Len(), q.Cap()))
		}
	}
}

// rpCandidates builds the policy view of one free partition's queue.
func (s *Service) rpCandidates(name string, cands []sched.Candidate) []sched.Candidate {
	st := s.eng.rps[name]
	for _, it := range s.queues[name].Items() {
		cands = append(cands, sched.Candidate{
			Item:       it,
			Resident:   st.resident == it.ASP,
			Cached:     s.eng.cache.Contains(it.ASP + "@" + name),
			ImageBytes: st.imageBytes,
		})
	}
	return cands
}

// dispatchOne serves queued work at the current instant. Resident hits
// cost no ICAP time, so every free partition whose policy-chosen next
// request is a hit starts it immediately — they must not wait behind a
// reconfiguration's staging and transfer. Then at most one reconfiguration
// (the policy's pick across all free partitions) occupies the single
// physical ICAP; it advances simulated time synchronously. Reports whether
// anything was dispatched.
func (s *Service) dispatchOne(now sim.Time) (bool, error) {
	if s.crashed {
		return false, nil // a dead board dispatches nothing
	}
	served := false
	var cands []sched.Candidate
	// Phase 1: each free partition whose policy-chosen next request is a
	// resident hit starts it (the hit occupies the partition's compute, so
	// at most one per RP per instant).
	for _, name := range s.eng.order {
		st := s.eng.rps[name]
		if st.busyUntil > now || s.queues[name].Len() == 0 {
			continue
		}
		cands = s.rpCandidates(name, cands[:0])
		pick := s.policy.Pick(cands)
		if !cands[pick].Resident {
			continue
		}
		it := s.queues[name].Remove(pick)
		s.queued--
		if err := s.serveItem(it, st, now); err != nil {
			return served, err
		}
		served = true
	}
	// Phase 2: one reconfiguration via the global policy pick.
	type slot struct {
		rp string
		qi int
	}
	var slots []slot
	cands = cands[:0]
	for _, name := range s.eng.order {
		if s.eng.rps[name].busyUntil > now {
			continue // partition computing
		}
		base := len(cands)
		cands = s.rpCandidates(name, cands)
		for qi := 0; qi < len(cands)-base; qi++ {
			slots = append(slots, slot{rp: name, qi: qi})
		}
	}
	if len(cands) == 0 {
		return served, nil
	}
	pick := s.policy.Pick(cands)
	it := s.queues[slots[pick].rp].Remove(slots[pick].qi)
	s.queued--
	if err := s.serveItem(it, s.eng.rps[slots[pick].rp], now); err != nil {
		return served, err
	}
	return true, nil
}

// serveItem dispatches one admitted request: reconfigure through the
// single ICAP if the ASP is not resident, then start its compute. Compute
// runs concurrently across partitions (a kernel event completes it);
// reconfigurations serialise on the configuration port.
func (s *Service) serveItem(it *sched.Item, st *rpState, now sim.Time) error {
	p := s.eng.ctrl.Platform()
	k := p.Kernel
	asp, err := workload.LibraryASP(it.ASP) // validated at the door
	if err != nil {
		return err
	}
	s.stats.Requests++
	s.stats.QueueWaitUS.Add(now.Sub(it.At).Microseconds())
	dispatch := now
	if s.tr != nil {
		s.tr.Span(obs.SpanQueue, s.tids[it.RP], int32(it.Seq), s.rel(it.At), now.Sub(it.At), asp.Name)
	}

	if st.resident != asp.Name {
		// The single physical ICAP arbitrates reconfigurations: wait out
		// any word-pipe occupancy before starting the next transfer.
		if bu := p.ICAP.BusyUntil(); bu > k.Now() {
			k.RunUntil(bu)
		}
		if s.tr != nil {
			kind := obs.EvCacheMiss
			if s.eng.cache.Contains(asp.Name + "@" + st.region.Name) {
				kind = obs.EvCacheHit
			}
			s.tr.Event(kind, obs.TIDICAP, int32(it.Seq), s.rel(k.Now()), asp.Name)
		}
		t0 := k.Now()
		bs, err := s.eng.acquire(asp, st) // may stage from backing store
		if err != nil {
			return err
		}
		if s.tr != nil {
			if d := k.Now().Sub(t0); d > 0 {
				s.tr.Span(obs.SpanStage, obs.TIDICAP, int32(it.Seq), s.rel(t0), d, asp.Name)
			}
		}
		x0 := k.Now()
		ok, err := s.eng.loadASP(&s.stats.Stats, st, asp, bs)
		if err != nil {
			return err
		}
		if s.tr != nil {
			s.tr.Span(obs.SpanXfer, obs.TIDICAP, int32(it.Seq), s.rel(x0), k.Now().Sub(x0), asp.Name)
		}
		if !ok {
			// CRC rejected the image: the request is dropped (visible in
			// Failures and the tenant's Failed), the partition left empty.
			if s.tr != nil {
				s.tr.Event(obs.EvCRCFail, obs.TIDICAP, int32(it.Seq), s.rel(k.Now()), asp.Name)
			}
			s.tenant(it.Tenant).Failed++
			if c := s.class(it.Class); c != nil {
				c.Failed++
			}
			s.done++
			return nil
		}
	} else {
		s.stats.Hits++
		if st.alarm {
			// The CRC monitor flagged the resident image; repair before the
			// accelerator runs on corrupted configuration.
			r0 := k.Now()
			if err := s.repair(st, asp); err != nil {
				return err
			}
			if s.tr != nil {
				mode := "scrub"
				if s.cfg.Repair == "reload" {
					mode = "reload"
				}
				s.tr.Span(obs.SpanRepair, obs.TIDICAP, int32(it.Seq), s.rel(r0), k.Now().Sub(r0), mode)
			}
			if st.resident != asp.Name {
				// A reload repair failed verification: dropped like any
				// CRC-failed load, the partition left empty.
				s.tenant(it.Tenant).Failed++
				if c := s.class(it.Class); c != nil {
					c.Failed++
				}
				s.done++
				return nil
			}
		}
	}

	gen := s.eng.traffic[st.region.Name]
	gen.SetRate(asp.MemBandwidthMBs)
	gen.Start()
	end := k.Now().Add(asp.ComputeTime)
	st.busyUntil = end
	st.inflight = it
	epoch := s.epoch
	k.At(end, func() {
		if epoch != s.epoch {
			return // the board crashed under this work; Crash accounted it
		}
		gen.Stop()
		st.busyUntil = 0
		st.inflight = nil
		s.stats.ComputeTime += asp.ComputeTime
		s.stats.Completed++
		s.done++
		s.stats.ServiceUS.Add(end.Sub(dispatch).Microseconds())
		s.stats.SojournUS.Add(end.Sub(it.At).Microseconds())
		t := s.tenant(it.Tenant)
		t.Completed++
		c := s.class(it.Class)
		if c != nil {
			c.Completed++
		}
		if s.tr != nil {
			s.tr.Span(obs.SpanCompute, s.tids[st.region.Name], int32(it.Seq),
				end.Sub(s.start)-asp.ComputeTime, asp.ComputeTime, asp.Name)
		}
		if it.Deadline > 0 && end > it.Deadline {
			s.stats.DeadlineMisses++
			t.DeadlineMisses++
			if c != nil {
				c.DeadlineMisses++
			}
			if s.tr != nil {
				s.tr.Event(obs.EvDeadlineMiss, s.tids[st.region.Name], int32(it.Seq),
					end.Sub(s.start), asp.Name)
			}
		}
		if s.onComplete != nil {
			s.onComplete(end.Sub(s.start), end.Sub(it.At))
		}
	})
	return nil
}

// repair clears a raised CRC alarm on the partition: "reload" pays a full
// partial reconfiguration of the resident image, "scrub" (the default)
// read-back-scans the region and rewrites only the damaged frames through
// the shared ICAP. Repair time is accounted separately from reconfiguration
// time so the ablation stays visible in the service statistics.
func (s *Service) repair(st *rpState, asp workload.ASP) error {
	p := s.eng.ctrl.Platform()
	k := p.Kernel
	t0 := k.Now()
	if s.cfg.Repair == "reload" {
		bs, err := s.eng.acquire(asp, st)
		if err != nil {
			return err
		}
		if _, err := s.eng.loadASP(&s.stats.Stats, st, asp, bs); err != nil {
			return err
		}
	} else {
		if bu := p.ICAP.BusyUntil(); bu > k.Now() {
			k.RunUntil(bu)
		}
		golden := asp.Frames(p.Device, st.region)
		var (
			rep  scrub.Report
			rerr error
			fin  bool
			err  error
		)
		sc := scrub.New(k, p.ICAP)
		deliver := func(r scrub.Report, err error) {
			rep, rerr, fin = r, err, true
		}
		// The monitor's frame addressing makes the repair targeted: only the
		// suspect frames are read, rewritten, and verified. Without it (a
		// hand-raised alarm) the scrubber sweeps the whole region.
		if len(st.suspect) > 0 {
			err = sc.ScrubFrames(st.region, golden, st.suspect, deliver)
		} else {
			err = sc.Scrub(st.region, golden, deliver)
		}
		if err != nil {
			return err
		}
		for !fin {
			if !k.Step() {
				return fmt.Errorf("hll: service: scrub of %s never completed", st.region.Name)
			}
		}
		if rerr != nil {
			return rerr
		}
		if !rep.Clean {
			return fmt.Errorf("hll: service: scrub left %s dirty", st.region.Name)
		}
		st.alarm = false
		st.suspect = nil
	}
	s.stats.Repairs++
	s.stats.RepairTime += k.Now().Sub(t0)
	return nil
}

// --- externally driven session (the fleet front-end's view) ---
//
// A fleet router owns the arrival stream: it advances every board to each
// arrival instant, inspects board state, and offers the request to exactly
// one board. The primitives below expose the Serve loop's phases for that
// driver. The dispatch semantics match Serve: work admitted at or before an
// instant is dispatched when the board next advances past it, and a session
// closes its measurement window exactly as Serve does.

// SetOnComplete installs a completion observer (see the field docs). It
// must be set before Begin or Serve.
func (s *Service) SetOnComplete(fn func(rel, sojourn sim.Duration)) { s.onComplete = fn }

// SetTracer installs the buffer this session's spans and events are
// recorded into (see internal/obs). It must be set before Begin or
// Serve; nil (or no call) keeps tracing disabled at zero cost. Record
// times are session-relative, anchored at Begin — prewarm staging runs
// before the anchor and is deliberately never traced.
func (s *Service) SetTracer(tr *obs.BoardTrace) {
	s.tr = tr
	if tr != nil && s.tids == nil {
		s.tids = make(map[string]int32, len(s.eng.order))
		for i, name := range s.eng.order {
			s.tids[name] = obs.TIDRPBase + int32(i)
		}
	}
}

// rel converts an absolute kernel instant to session-relative time.
func (s *Service) rel(t sim.Time) sim.Duration { return t.Sub(s.start) }

// RPNames lists this board's partitions in platform order.
func (s *Service) RPNames() []string { return append([]string(nil), s.eng.order...) }

// Outstanding reports the offered-but-unfinished request count (queued or
// computing; shed requests are finished on arrival) — the
// join-shortest-queue signal a fleet router balances on.
func (s *Service) Outstanding() int { return s.stats.Offered - s.done }

// Queued reports the total number of requests waiting in the per-RP queues
// (O(1): maintained at the admission, dispatch and crash sites — a fleet
// router reads this per board per arrival).
func (s *Service) Queued() int { return s.queued }

// Done reports the requests that reached a terminal state (completed, shed,
// CRC-failed or lost) — the progress counter a fleet health check watches.
func (s *Service) Done() int { return s.done }

// CacheResidency reports the live bitstream-cache occupancy (resident
// images and bytes) — the residency gauges the metrics layer samples.
func (s *Service) CacheResidency() (images int, bytes int64) {
	return s.eng.cache.Len(), s.eng.cache.Stats().ResidentBytes
}

// Crashed reports whether the board is down (refusing offers).
func (s *Service) Crashed() bool { return s.crashed }

// Crash takes the board down mid-session: every queued and in-flight
// request is lost (counted in Lost and the owning tenant's Failed), pending
// completion events are invalidated, the partitions forget their resident
// ASPs and the DRAM bitstream cache is wiped — warm state dies with the
// board. Until Recover, the service refuses offers and dispatches nothing;
// its kernel still advances (time passes at a dead board too).
func (s *Service) Crash() {
	if !s.started || s.finished || s.crashed {
		return
	}
	s.crashed = true
	s.epoch++ // orphan every scheduled completion
	if s.tr != nil {
		s.tr.Event(obs.EvCrash, obs.TIDLifecycle, -1,
			s.rel(s.eng.ctrl.Platform().Kernel.Now()), "")
	}
	for _, name := range s.eng.order {
		st := s.eng.rps[name]
		if st.inflight != nil {
			s.eng.traffic[name].Stop()
			s.tenant(st.inflight.Tenant).Failed++
			if c := s.class(st.inflight.Class); c != nil {
				c.Failed++
			}
			s.stats.Lost++
			s.done++
			st.inflight = nil
		}
		st.busyUntil = 0
		st.resident = ""
		st.alarm = false
		st.suspect = nil
		q := s.queues[name]
		for q.Len() > 0 {
			it := q.Remove(0)
			s.queued--
			s.tenant(it.Tenant).Failed++
			if c := s.class(it.Class); c != nil {
				c.Failed++
			}
			s.stats.Lost++
			s.done++
		}
	}
	s.eng.cache.Clear()
}

// Recover brings a crashed board back: empty partitions, cold cache — the
// reboot state. The session stays open; the board resumes serving whatever
// the front-end routes to it next.
func (s *Service) Recover() {
	if s.tr != nil && s.crashed && s.started && !s.finished {
		s.tr.Event(obs.EvRecover, obs.TIDLifecycle, -1,
			s.rel(s.eng.ctrl.Platform().Kernel.Now()), "")
	}
	s.crashed = false
}

// RaiseCRCUpset models configuration-memory corruption on a live board: it
// flips bits in n distinct frames of the first partition with a resident
// ASP and raises that partition's CRC alarm (the read-back monitor's error
// interrupt). The service repairs — scrub or reload per the configuration —
// before the resident ASP is dispatched again. Returns false when no
// partition holds an image (nothing configured, nothing to corrupt).
func (s *Service) RaiseCRCUpset(n int) (bool, error) {
	if s.crashed {
		return false, nil
	}
	for _, name := range s.eng.order {
		st := s.eng.rps[name]
		if st.resident == "" {
			continue
		}
		if s.injector == nil {
			s.injector = scrub.NewInjector(s.eng.ctrl.Platform().Memory, s.cfg.UpsetSeed)
		}
		hit, err := s.injector.UpsetRegion(st.region, n)
		if err != nil {
			return false, fmt.Errorf("hll: service: %w", err)
		}
		// The read-back monitor localises each error to a frame address (the
		// SEM flow); the repair path uses it for a targeted scrub.
		st.suspect = append(st.suspect, hit...)
		st.alarm = true
		s.stats.CRCAlarms++
		if s.tr != nil && s.started && !s.finished {
			s.tr.Event(obs.EvCRCAlarm, s.tids[name], -1,
				s.rel(s.eng.ctrl.Platform().Kernel.Now()), name)
		}
		return true, nil
	}
	return false, nil
}

// Begin opens an externally driven session: prewarm the cache, snapshot the
// staging/cache counters and anchor the relative timeline at the board's
// current instant. A service serves exactly one stream — Begin rejects a
// service already consumed by Serve or an earlier session.
func (s *Service) Begin() error {
	if s.started {
		return fmt.Errorf("hll: service already consumed (one stream per service)")
	}
	if err := s.prewarm(); err != nil {
		return fmt.Errorf("hll: service: prewarm: %w", err)
	}
	s.started = true
	s.start = s.eng.ctrl.Platform().Kernel.Now()
	s.stage0 = s.eng.stageTime
	s.cache0 = s.eng.cache.Stats()
	s.done = 0
	return nil
}

// Offer admits one routed request at time start+req.At, running the same
// admission control Serve applies, and reports whether the request was
// admitted (false = shed). The request must reference one of this board's
// RPs and a known ASP — the fleet validates the stream at its own door, so
// a violation here is a routing bug, not load.
func (s *Service) Offer(req workload.Request) (bool, error) {
	if !s.started || s.finished {
		return false, fmt.Errorf("hll: service: Offer outside an open session")
	}
	if s.crashed {
		// Connection refused: the request never reaches admission control,
		// so it is not an Offered/Shed outcome — the fleet front-end
		// classifies the refusal (and fails over) via Crashed.
		return false, nil
	}
	if _, ok := s.queues[req.RP]; !ok {
		return false, fmt.Errorf("hll: service: unknown RP %q routed to this board", req.RP)
	}
	if _, err := workload.LibraryASP(req.ASP); err != nil {
		return false, fmt.Errorf("hll: service: %w", err)
	}
	shed0 := s.stats.Shed
	s.admit(req, s.start)
	return s.stats.Shed == shed0, nil
}

// AdvanceTo drives the board's simulation to start+rel, dispatching queued
// work on the way exactly as Serve's loop does. Dispatches at the target
// instant itself are deferred to the next call, so arrivals offered at rel
// join the candidate set before anything is picked at that instant — the
// same order Serve establishes by admitting arrivals before dispatching. A
// synchronous reconfiguration may overrun the target (as in Serve, where
// arrivals during a transfer wait for the dispatcher); later calls with an
// already-passed target are no-ops. With nothing queued, dispatch is a
// no-op and nothing enqueues mid-advance, so the idle board runs straight
// to the target in one RunUntil; the kernel still fires every event on
// the way.
func (s *Service) AdvanceTo(rel sim.Duration) error {
	if !s.started || s.finished {
		return fmt.Errorf("hll: service: AdvanceTo outside an open session")
	}
	k := s.eng.ctrl.Platform().Kernel
	target := s.start.Add(rel)
	for {
		now := k.Now()
		if now >= target {
			return nil
		}
		if s.queued == 0 {
			k.RunUntil(target)
			return nil
		}
		served, err := s.dispatchOne(now)
		if err != nil {
			return fmt.Errorf("hll: service: %w", err)
		}
		if served {
			continue
		}
		wake := target
		for _, name := range s.eng.order {
			if bu := s.eng.rps[name].busyUntil; bu > now && bu < wake {
				wake = bu
			}
		}
		k.RunUntil(wake)
	}
}

// Drain serves everything still outstanding, closes the measurement window
// and returns the session's statistics.
func (s *Service) Drain() (ServiceStats, error) {
	if !s.started || s.finished {
		return s.stats, fmt.Errorf("hll: service: Drain outside an open session")
	}
	k := s.eng.ctrl.Platform().Kernel
	for s.done < s.stats.Offered {
		now := k.Now()
		served, err := s.dispatchOne(now)
		if err != nil {
			s.finish(s.start, s.stage0, s.cache0)
			return s.stats, fmt.Errorf("hll: service: %w", err)
		}
		if served {
			continue
		}
		wake := sim.Never
		for _, name := range s.eng.order {
			if bu := s.eng.rps[name].busyUntil; bu > now && bu < wake {
				wake = bu
			}
		}
		if wake == sim.Never {
			s.finish(s.start, s.stage0, s.cache0)
			return s.stats, fmt.Errorf("hll: service stalled with %d/%d requests outstanding",
				s.stats.Offered-s.done, s.stats.Offered)
		}
		k.RunUntil(wake)
	}
	s.finish(s.start, s.stage0, s.cache0)
	return s.stats, nil
}
