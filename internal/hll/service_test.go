package hll

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

func newServiceController(t *testing.T) *core.Controller {
	t.Helper()
	p, err := zynq.NewPlatform(zynq.Options{Seed: 9, FastThermal: true})
	if err != nil {
		t.Fatal(err)
	}
	p.ConfigureStatic()
	c := core.New(p)
	if _, err := c.SetFrequencyMHz(200); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustService(t *testing.T, c *core.Controller, cfg ServiceConfig) *Service {
	t.Helper()
	s, err := NewService(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustTrace(t *testing.T) func(workload.Trace, error) workload.Trace {
	t.Helper()
	return func(tr workload.Trace, err error) workload.Trace {
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

func TestServeCompletesEveryAdmittedRequest(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{QueueCap: -1})
	tr := mustTrace(t)(workload.OpenPoisson(5, 40, 300,
		[]string{"RP1", "RP2", "RP3", "RP4"}, []string{"fir128", "sha3", "aes-gcm"}))
	stats, err := s.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered != 40 || stats.Admitted != 40 || stats.Shed != 0 {
		t.Errorf("offered/admitted/shed = %d/%d/%d", stats.Offered, stats.Admitted, stats.Shed)
	}
	if stats.Completed+stats.Failures != 40 {
		t.Errorf("completed %d + failures %d ≠ 40", stats.Completed, stats.Failures)
	}
	if stats.SojournUS.N() != stats.Completed {
		t.Errorf("sojourn samples %d ≠ completed %d", stats.SojournUS.N(), stats.Completed)
	}
	if stats.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
}

func TestServeOverlapsComputeAcrossRPs(t *testing.T) {
	// Two resident-hit computes on different RPs must overlap: serve the
	// same ASP twice per RP (second requests are hits), and check the
	// makespan beats the closed-loop replayer on the same trace.
	run := func(open bool) sim.Duration {
		c := newServiceController(t)
		tr := workload.Trace{
			{At: 0, RP: "RP1", ASP: "matmul8"},
			{At: 0, RP: "RP2", ASP: "matmul8"},
			{At: 0, RP: "RP1", ASP: "matmul8"},
			{At: 0, RP: "RP2", ASP: "matmul8"},
		}
		if open {
			// Prewarm stages matmul8 before the window opens: the
			// closed-loop replayer stages for free, so the makespans
			// compare dispatch alone.
			svc := mustService(t, c, ServiceConfig{Prewarm: []string{"matmul8"}})
			stats, err := svc.Serve(tr)
			if err != nil {
				t.Fatal(err)
			}
			return stats.Makespan
		}
		stats, err := New(c).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	closed, opened := run(false), run(true)
	if opened >= closed {
		t.Errorf("service makespan %v should beat closed-loop %v (concurrent compute)", opened, closed)
	}
}

func TestServeShedsUnderQueueCap(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{QueueCap: 2})
	// A burst of simultaneous same-RP requests: 2 queue, the rest shed
	// (minus the one dispatched immediately).
	tr := workload.Trace{}
	for i := 0; i < 8; i++ {
		tr = append(tr, workload.Request{At: 0, RP: "RP1", ASP: "fir128"})
	}
	stats, err := s.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed == 0 {
		t.Error("queue cap 2 must shed part of an 8-deep burst")
	}
	if stats.Offered != 8 || stats.Admitted+stats.Shed != 8 {
		t.Errorf("admission accounting broken: %+v", stats)
	}
	if stats.Completed != stats.Admitted {
		t.Errorf("completed %d ≠ admitted %d", stats.Completed, stats.Admitted)
	}
}

func TestServeCountsDeadlineMissesAndTenants(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{QueueCap: -1})
	spec := workload.ArrivalSpec{
		RatePerSec: 2000, // well past one RP's reconfig capacity
		Tenants:    []string{"alpha", "beta"},
		Deadline:   500 * sim.Microsecond,
	}
	tr := mustTrace(t)(spec.Generate(7, 30, []string{"RP1"}, []string{"fir128", "sha3"}))
	stats, err := s.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadlineMisses == 0 {
		t.Error("an overloaded RP must miss 500 µs deadlines")
	}
	if len(stats.Tenants) != 2 {
		t.Fatalf("tenants = %v", stats.TenantNames())
	}
	var offered, settled int
	for _, name := range stats.TenantNames() {
		ts := stats.Tenants[name]
		offered += ts.Offered
		settled += ts.Completed + ts.Shed + ts.Failed
	}
	if offered != 30 {
		t.Errorf("per-tenant offered sums to %d, want 30", offered)
	}
	if settled != offered {
		t.Errorf("per-tenant outcomes sum to %d, want %d (every request settles exactly once)", settled, offered)
	}
}

func TestServeCacheBudgetForcesStaging(t *testing.T) {
	// With a budget of one image and staging priced at the SD rate, every
	// swap between two ASPs on one RP re-stages; the profile budget holds
	// both images and stages each once.
	run := func(budget int64) ServiceStats {
		c := newServiceController(t)
		s := mustService(t, c, ServiceConfig{CacheBudgetBytes: budget})
		tr := workload.Trace{}
		for i := 0; i < 6; i++ {
			asp := "fir128"
			if i%2 == 1 {
				asp = "sha3"
			}
			tr = append(tr, workload.Request{At: sim.Duration(i) * 50 * sim.Millisecond, RP: "RP1", ASP: asp})
		}
		stats, err := s.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	one := run(600_000) // holds one 528,760-byte image
	all := run(0)
	if one.Cache.Evictions == 0 {
		t.Error("one-image budget must evict on every swap")
	}
	if all.Cache.Evictions != 0 {
		t.Errorf("unlimited cache evicted %d times", all.Cache.Evictions)
	}
	if one.StageTime <= all.StageTime {
		t.Errorf("thrashing cache should stage longer: %v vs %v", one.StageTime, all.StageTime)
	}
	if all.Cache.Hits == 0 {
		t.Error("unlimited cache must hit on repeats")
	}
}

func TestServeNoCacheAblationStagesEveryReconfig(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{CacheBudgetBytes: -1})
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 100 * sim.Millisecond, RP: "RP1", ASP: "fir128"}, // resident hit: no restage
		{At: 200 * sim.Millisecond, RP: "RP1", ASP: "sha3"},
		{At: 300 * sim.Millisecond, RP: "RP1", ASP: "fir128"},
	}
	stats, err := s.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 0 {
		t.Errorf("disabled cache hit %d times", stats.Cache.Hits)
	}
	if stats.Reconfigs != 3 || stats.Hits != 1 {
		t.Errorf("reconfigs/hits = %d/%d, want 3/1", stats.Reconfigs, stats.Hits)
	}
	// Every one of the 3 reconfigs staged 528,760 bytes at 20 MB/s.
	wantStage := 3 * sim.FromSeconds(528760.0/20e6)
	if stats.StageTime != wantStage {
		t.Errorf("stage time %v, want %v", stats.StageTime, wantStage)
	}
}

func TestAffinityPolicyBeatsFCFSOnHitRate(t *testing.T) {
	// One RP, alternating arrivals for two ASPs in simultaneous pairs:
	// affinity batches same-ASP requests (second of each pair is a hit),
	// FCFS alternates and reconfigures every time.
	trace := func() workload.Trace {
		tr := workload.Trace{}
		for i := 0; i < 6; i++ {
			tr = append(tr, workload.Request{At: 0, RP: "RP1", ASP: "fir128"})
			tr = append(tr, workload.Request{At: 0, RP: "RP1", ASP: "sha3"})
		}
		return tr
	}
	run := func(policy string) ServiceStats {
		c := newServiceController(t)
		s := mustService(t, c, ServiceConfig{Policy: policy})
		stats, err := s.Serve(trace())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fcfs := run("fcfs")
	aff := run("affinity")
	if aff.Hits <= fcfs.Hits {
		t.Errorf("affinity hits %d should beat FCFS %d", aff.Hits, fcfs.Hits)
	}
	if aff.ReconfigTime >= fcfs.ReconfigTime {
		t.Errorf("affinity reconfig time %v should beat FCFS %v", aff.ReconfigTime, fcfs.ReconfigTime)
	}
}

func TestServeDeterministic(t *testing.T) {
	run := func() (ServiceStats, uint64) {
		c := newServiceController(t)
		s := mustService(t, c, ServiceConfig{
			Policy:            "sbf",
			CacheBudgetImages: 2,
			QueueCap:          8,
		})
		tr := mustTrace(t)(workload.OpenBursts(21, 48, 800, 4, 6,
			[]string{"RP1", "RP2", "RP3", "RP4"}, []string{"fir128", "sha3", "aes-gcm", "fft1k"}))
		stats, err := s.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return stats, c.Platform().Kernel.Fired()
	}
	s1, f1 := run()
	s2, f2 := run()
	if f1 != f2 {
		t.Errorf("event counts differ: %d vs %d", f1, f2)
	}
	if s1.Completed != s2.Completed || s1.Shed != s2.Shed || s1.Reconfigs != s2.Reconfigs ||
		s1.Makespan != s2.Makespan || s1.StageTime != s2.StageTime ||
		s1.SojournUS.Percentile(99) != s2.SojournUS.Percentile(99) {
		t.Errorf("service runs diverge:\n%+v\nvs\n%+v", s1, s2)
	}
}

// TestSessionMatchesServe pins the externally driven session mode (the
// fleet front-end's path) to Serve's semantics: driving the same stream
// through Begin/Offer/AdvanceTo/Drain on an identically seeded board must
// reproduce Serve's statistics exactly — same admissions, same schedule,
// same simulated timing.
func TestSessionMatchesServe(t *testing.T) {
	cfg := ServiceConfig{
		Policy:            "sbf",
		CacheBudgetImages: 2, // thrashes: staging and eviction on most swaps
		QueueCap:          8,
		Prewarm:           []string{"fir128"},
	}
	tr := mustTrace(t)(workload.OpenBursts(21, 48, 800, 4, 6,
		[]string{"RP1", "RP2", "RP3", "RP4"}, []string{"fir128", "sha3", "aes-gcm", "fft1k"}))

	cA := newServiceController(t)
	served, err := mustService(t, cA, cfg).Serve(tr)
	if err != nil {
		t.Fatal(err)
	}

	cB := newServiceController(t)
	s := mustService(t, cB, cfg)
	completions := 0
	s.SetOnComplete(func(rel, sojourn sim.Duration) {
		completions++
		if rel <= 0 || sojourn <= 0 {
			t.Errorf("completion hook got rel=%v sojourn=%v", rel, sojourn)
		}
	})
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	now := sim.Duration(-1)
	for _, req := range tr {
		if req.At > now {
			now = req.At
			if err := s.AdvanceTo(now); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Offer(req); err != nil {
			t.Fatal(err)
		}
	}
	driven, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(served, driven) {
		t.Errorf("session-driven stats diverge from Serve:\n%+v\nvs\n%+v", served, driven)
	}
	if fa, fb := cA.Platform().Kernel.Fired(), cB.Platform().Kernel.Fired(); fa != fb {
		t.Errorf("event counts differ: Serve %d vs session %d", fa, fb)
	}
	if completions != driven.Completed {
		t.Errorf("completion hook fired %d times, want %d", completions, driven.Completed)
	}
}

// TestSessionAdvanceToIdleGuards pins AdvanceTo's idle path and the O(1)
// queue counter it relies on: an idle board lands exactly on start+rel, an
// already-passed target leaves the clock alone, and queued work still goes
// through dispatch.
func TestSessionAdvanceToIdleGuards(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{})
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if s.Queued() != 0 {
		t.Fatalf("fresh session queued = %d, want 0", s.Queued())
	}

	k := c.Platform().Kernel
	start := k.Now()
	if err := s.AdvanceTo(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := k.Now(); got != start.Add(5*sim.Millisecond) {
		t.Errorf("idle advance left the clock at %v, want start+5ms", got)
	}
	if err := s.AdvanceTo(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := k.Now(); got != start.Add(5*sim.Millisecond) {
		t.Errorf("past-target advance moved the clock to %v", got)
	}

	if _, err := s.Offer(workload.Request{At: 5 * sim.Millisecond, RP: "RP1", ASP: "fir128"}); err != nil {
		t.Fatal(err)
	}
	if s.Queued() != 1 {
		t.Errorf("queued = %d after Offer, want 1 (dispatch waits for AdvanceTo)", s.Queued())
	}
	if err := s.AdvanceTo(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Queued() != 0 {
		t.Errorf("queued = %d after dispatch, want 0", s.Queued())
	}
	if st, err := s.Drain(); err != nil || st.Completed != 1 {
		t.Fatalf("drain: completed = %d, err = %v", st.Completed, err)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{})
	if _, err := s.Offer(workload.Request{RP: "RP1", ASP: "fir128"}); err == nil {
		t.Error("Offer before Begin must fail")
	}
	if err := s.AdvanceTo(sim.Millisecond); err == nil {
		t.Error("AdvanceTo before Begin must fail")
	}
	if _, err := s.Drain(); err == nil {
		t.Error("Drain before Begin must fail")
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err == nil {
		t.Error("double Begin must fail")
	}
	if _, err := s.Offer(workload.Request{RP: "RP9", ASP: "fir128"}); err == nil {
		t.Error("unknown RP routed to the board must fail")
	}
	if _, err := s.Offer(workload.Request{RP: "RP1", ASP: "ghost"}); err == nil {
		t.Error("unknown ASP must fail")
	}

	// A service serves exactly one stream: consumed by Serve, it must
	// reject both another Serve and a session.
	used := mustService(t, newServiceController(t), ServiceConfig{})
	tr := workload.Trace{{RP: "RP1", ASP: "fir128"}}
	if _, err := used.Serve(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := used.Serve(tr); err == nil {
		t.Error("second Serve on a consumed service must fail")
	}
	if err := used.Begin(); err == nil {
		t.Error("Begin on a service consumed by Serve must fail")
	}
	// The closed window must stay closed: a stray Drain would otherwise
	// re-apply the staging/cache deltas on top of the finished stats.
	if _, err := used.Drain(); err == nil {
		t.Error("Drain on a consumed service must fail")
	}
	if _, err := used.Offer(workload.Request{RP: "RP1", ASP: "fir128"}); err == nil {
		t.Error("Offer on a consumed service must fail")
	}
	if err := used.AdvanceTo(sim.Millisecond); err == nil {
		t.Error("AdvanceTo on a consumed service must fail")
	}
}

// TestServeZeroDeadlineNeverMisses covers the Deadline == 0 path end to
// end: a request without a latency budget must never be counted as a
// deadline miss, however long it actually queued — globally and in the
// per-tenant break-down.
func TestServeZeroDeadlineNeverMisses(t *testing.T) {
	c := newServiceController(t)
	// No cache + slow staging: every request pays tens of milliseconds, so
	// any spurious deadline accounting would trip immediately.
	s := mustService(t, c, ServiceConfig{CacheBudgetBytes: -1, QueueCap: -1})
	spec := workload.ArrivalSpec{RatePerSec: 400, Tenants: []string{"a", "b"}} // Deadline: 0
	tr := mustTrace(t)(spec.Generate(11, 24, []string{"RP1", "RP2"}, []string{"fir128", "sha3"}))
	stats, err := s.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 {
		t.Fatal("stream must complete work")
	}
	if stats.SojournUS.Max() < 1000 {
		t.Fatalf("test premise broken: sojourns too fast (max %v us) to catch spurious misses", stats.SojournUS.Max())
	}
	if stats.DeadlineMisses != 0 {
		t.Errorf("zero-deadline stream reported %d deadline misses", stats.DeadlineMisses)
	}
	for _, name := range stats.TenantNames() {
		if n := stats.Tenants[name].DeadlineMisses; n != 0 {
			t.Errorf("tenant %s reported %d deadline misses on a zero-deadline stream", name, n)
		}
	}
}

func TestServeValidatesAtTheDoor(t *testing.T) {
	c := newServiceController(t)
	s := mustService(t, c, ServiceConfig{})
	if _, err := s.Serve(workload.Trace{{RP: "RP9", ASP: "fir128"}}); err == nil {
		t.Error("unknown RP must fail")
	}
	if _, err := s.Serve(workload.Trace{{RP: "RP1", ASP: "ghost"}}); err == nil {
		t.Error("unknown ASP must fail")
	}
	out := workload.Trace{
		{At: 2 * sim.Millisecond, RP: "RP1", ASP: "fir128"},
		{At: 1 * sim.Millisecond, RP: "RP1", ASP: "fir128"},
	}
	if _, err := s.Serve(out); err == nil {
		t.Error("out-of-order stream must fail")
	}
}
