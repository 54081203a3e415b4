// Package hll implements the paper's acceleration framework (Fig. 1): four
// reconfigurable partitions with per-RP clocks from the Clock Manager,
// interrupt-driven status, and on-demand ASP swapping through the
// over-clocked core controller — the "dynamically loaded hardware
// routines" story of the introduction.
//
// The package has two front-ends over one engine:
//
//   - Framework replays a fixed trace closed-loop (each request waits for
//     the previous one), exactly as the paper's measurement harness did —
//     the E9 scenario runs on it and its timing is pinned by the
//     determinism suite.
//   - Service runs the framework as an open-loop reconfiguration service:
//     rate-parameterised arrival streams, per-RP queues with admission
//     control, pluggable dispatch policies arbitrating the single physical
//     ICAP, and a DRAM-resident bitstream cache with LRU eviction — the
//     layer the saturation (E11) and scheduling (E12) scenarios measure.
package hll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Stats aggregates a run.
type Stats struct {
	// Requests served and reconfigurations performed (a request for a
	// resident ASP needs none).
	Requests  int
	Reconfigs int
	// Hits counts requests whose ASP was already resident.
	Hits int
	// ReconfigTime is total time spent in partial reconfiguration;
	// ComputeTime is total ASP execution time; Makespan is start→finish.
	ReconfigTime sim.Duration
	ComputeTime  sim.Duration
	Makespan     sim.Duration
	// Failures counts loads that did not verify.
	Failures int
	// QueueWaitUS samples each request's wait between arrival and dispatch
	// in microseconds; ServiceUS samples dispatch→completion. Percentiles
	// (p50/p95/p99) come from sim.Sample.
	QueueWaitUS sim.Sample
	ServiceUS   sim.Sample
}

// OverheadFraction is reconfiguration time / makespan — the metric that
// motivates boosting PDR throughput.
func (s Stats) OverheadFraction() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.ReconfigTime) / float64(s.Makespan)
}

// Framework is the assembled Fig.-1 system replaying a fixed trace
// closed-loop: requests are served strictly in order, each queueing behind
// the previous one as with a busy accelerator.
type Framework struct {
	eng   *engine
	stats Stats
}

// New builds the framework on a platform-backed controller, taking its
// images from the given store (nil gives the framework its own; like
// ServiceConfig.Images it saves host work only). The replayer keeps the
// legacy build-once bitstream behaviour: an unlimited cache with free
// staging, so its simulated timing is a pure function of the trace.
func New(ctrl *core.Controller, images *ImageStore) *Framework {
	return &Framework{eng: newEngine(ctrl, -1, 0, images)}
}

// Resident returns the ASP currently configured in the RP ("" if none).
func (f *Framework) Resident(rp string) (string, error) {
	st, ok := f.eng.rps[rp]
	if !ok {
		return "", fmt.Errorf("hll: unknown RP %q", rp)
	}
	return st.resident, nil
}

// Stats returns the accumulated statistics.
func (f *Framework) Stats() Stats { return f.stats }

// serve handles one request synchronously in simulated time: reconfigure if
// needed, set the RP clock, then run the ASP's compute. target is the
// request's nominal arrival time (for queue-wait accounting).
func (f *Framework) serve(req workload.Request, target sim.Time) error {
	st, ok := f.eng.rps[req.RP]
	if !ok {
		return fmt.Errorf("hll: unknown RP %q", req.RP)
	}
	asp, err := workload.LibraryASP(req.ASP)
	if err != nil {
		return err
	}
	p := f.eng.ctrl.Platform()
	f.stats.Requests++
	dispatch := p.Kernel.Now()
	f.stats.QueueWaitUS.Add(dispatch.Sub(target).Microseconds())

	if st.resident != asp.Name {
		bs, err := f.eng.acquire(asp, st)
		if err != nil {
			return err
		}
		ok, err := f.eng.loadASP(&f.stats, st, asp, bs)
		if err != nil {
			return err
		}
		if !ok {
			return nil // request dropped; caller sees it in stats
		}
	} else {
		f.stats.Hits++
	}

	// Run the task; the ASP's data DMA loads the shared memory interface
	// for the duration.
	gen := f.eng.traffic[req.RP]
	gen.SetRate(asp.MemBandwidthMBs)
	gen.Start()
	p.Kernel.RunFor(asp.ComputeTime)
	gen.Stop()
	f.stats.ComputeTime += asp.ComputeTime
	f.stats.ServiceUS.Add(p.Kernel.Now().Sub(dispatch).Microseconds())
	return nil
}

// Run executes a whole trace, honouring request times (a request earlier
// than "now" queues behind the previous one, as with a busy accelerator).
// When a mid-trace request fails, Run returns the statistics accumulated
// up to the failure — makespan included — with the error wrapped, so a
// caller keeps the progress a partial run paid for.
func (f *Framework) Run(tr workload.Trace) (Stats, error) {
	p := f.eng.ctrl.Platform()
	start := p.Kernel.Now()
	for i, req := range tr {
		target := start.Add(req.At)
		if p.Kernel.Now() < target {
			p.Kernel.RunUntil(target)
		}
		if err := f.serve(req, target); err != nil {
			f.stats.Makespan = p.Kernel.Now().Sub(start)
			return f.stats, fmt.Errorf("hll: request %d (%s on %s): %w", i, req.ASP, req.RP, err)
		}
	}
	f.stats.Makespan = p.Kernel.Now().Sub(start)
	return f.stats, nil
}
