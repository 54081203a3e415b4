package dram

import (
	"repro/internal/sim"
)

// Traffic is an open-loop burst generator modelling an accelerator's data
// DMA on its own HP port (Fig. 1 gives every RP a private DMA): it issues
// fixed-size bursts at a target rate, backing off when the shared port
// cannot keep up. Used by the acceleration framework to make running ASPs
// contend with the configuration path, and by the contention ablation.
type Traffic struct {
	kernel *sim.Kernel
	ctrl   *Controller
	master int

	// BurstBytes is the request size (default 128).
	BurstBytes int

	gap     sim.Duration
	running bool
	moved   uint64

	// issued holds the issue instants of the bursts in flight, oldest at
	// head: the controller grants one master's bursts in FIFO order, so
	// each completion pops the stamp of the burst it retires. A Stop
	// followed by a Start while a burst is in flight starts a second
	// chain, so more than one stamp can be pending. The slice is reused,
	// so steady-state streaming does not allocate.
	issued []sim.Time
	head   int
	// pumpFn and doneFn are the continuations bound once at construction.
	pumpFn, doneFn func()
}

// NewTraffic registers a generator targeting rateMBs megabytes per second.
func NewTraffic(k *sim.Kernel, c *Controller, rateMBs float64) *Traffic {
	t := &Traffic{
		kernel:     k,
		ctrl:       c,
		master:     c.RegisterMaster(),
		BurstBytes: 128,
	}
	t.pumpFn = t.pump
	t.doneFn = t.done
	t.SetRate(rateMBs)
	return t
}

// SetRate retargets the generator (takes effect at the next burst). A rate
// of zero or less disables it; any positive rate is honoured, saturating at
// what the port can grant.
func (t *Traffic) SetRate(rateMBs float64) {
	if rateMBs <= 0 {
		t.gap = 0
		return
	}
	gap := sim.FromSeconds(float64(t.BurstBytes) / (rateMBs * 1e6))
	if gap < 1 {
		gap = 1 // sub-picosecond pacing means "as fast as the port allows"
	}
	t.gap = gap
}

// BytesMoved returns the bytes transferred since construction.
func (t *Traffic) BytesMoved() uint64 { return t.moved }

// Running reports whether the generator is active.
func (t *Traffic) Running() bool { return t.running }

// Start begins issuing bursts; a no-op if already running or rate is zero.
// Start does not wait for a burst issued before a Stop: if one is still in
// flight, its chain resumes on completion beside the new one.
func (t *Traffic) Start() {
	if t.running || t.gap == 0 {
		return
	}
	t.running = true
	t.pump()
}

// Stop halts each chain after its in-flight burst.
func (t *Traffic) Stop() { t.running = false }

func (t *Traffic) pump() {
	if !t.running {
		return
	}
	t.issued = append(t.issued, t.kernel.Now())
	t.ctrl.Request(t.master, t.BurstBytes, t.doneFn)
}

// done retires the oldest in-flight burst.
func (t *Traffic) done() {
	issued := t.issued[t.head]
	t.head++
	if t.head == len(t.issued) {
		t.issued = t.issued[:0]
		t.head = 0
	}
	t.moved += uint64(t.BurstBytes)
	if !t.running {
		return
	}
	// Next burst at the pacing gap from issue, or immediately if the port
	// is the bottleneck (closed-loop back-off: each chain keeps one burst
	// outstanding).
	next := issued.Add(t.gap)
	if next <= t.kernel.Now() {
		t.pump()
		return
	}
	t.kernel.At(next, t.pumpFn)
}
