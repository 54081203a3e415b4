package hll

import (
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

// rpState tracks one partition.
type rpState struct {
	region   fabric.Region
	resident string // ASP name, "" when empty
	clock    string // Clock Manager output feeding this RP
	// imageBytes is the partial-bitstream size for this RP (every library
	// ASP fills the full frame span, so size is a function of the region).
	imageBytes int
	// busyUntil is when the RP's current compute finishes (service mode);
	// a time at or before "now" means the partition is free.
	busyUntil sim.Time
	// inflight is the request currently computing on the partition (service
	// mode); a board crash loses it and invalidates its completion event.
	inflight *sched.Item
	// alarm records a raised CRC read-back alarm: the partition's
	// configuration memory no longer matches the golden image. The service
	// repairs (scrub or full reload) before the resident ASP runs again.
	alarm bool
	// suspect lists the linear frame indices the read-back monitor localised
	// the alarm to (SEM-style frame addressing); empty means "somewhere in
	// the region" and forces a full-region scrub.
	suspect []int
}

// engine is the machinery shared by the closed-loop trace replayer
// (Framework) and the open-loop reconfiguration service (Service): the
// per-RP states and data-DMA traffic generators, the DRAM-resident
// bitstream cache, and the load path through the over-clocked controller.
type engine struct {
	ctrl *core.Controller
	// order lists the RP names in platform order — every scan uses it, so
	// no map iteration can perturb determinism.
	order []string
	rps   map[string]*rpState
	// traffic models each RP's private data DMA on the shared memory
	// interface; a computing ASP contends with the configuration path.
	traffic map[string]*dram.Traffic

	// cache is the DRAM-resident bitstream store; stageRate is the
	// backing-store (SD card) rate paid to stage an image on a miss
	// (0 = staging is free, the legacy replayer behaviour).
	cache     *sched.Cache
	stageRate float64
	stageTime sim.Duration
	// images builds the bytes a miss stages, once per content for the
	// store's whole scope; it never changes what the cache simulates.
	images *ImageStore
}

// newEngine assembles the per-RP state exactly as the Fig.-1 framework
// wires it: one traffic generator per RP (registration order = platform RP
// order) and one Clock Manager output per partition. A nil image store
// gives the engine its own.
func newEngine(ctrl *core.Controller, cacheBudget int64, stageRate float64, images *ImageStore) *engine {
	if images == nil {
		images = NewImageStore()
	}
	e := &engine{
		ctrl:      ctrl,
		rps:       make(map[string]*rpState),
		traffic:   make(map[string]*dram.Traffic),
		cache:     sched.NewCache(cacheBudget),
		stageRate: stageRate,
		images:    images,
	}
	p := ctrl.Platform()
	clocks := p.ClockManager.Names()
	for i, rp := range p.RPs {
		e.order = append(e.order, rp.Name)
		e.rps[rp.Name] = &rpState{
			region:     rp,
			clock:      clocks[i%len(clocks)],
			imageBytes: imageBytes(p, rp),
		}
		e.traffic[rp.Name] = dram.NewTraffic(p.Kernel, p.DDR, 0)
	}
	return e
}

// imageBytes is the partial-bitstream size of a partition on the platform.
func imageBytes(p *zynq.Platform, rp fabric.Region) int {
	return bitstream.ExpectedSize(p.Device.RegionFrames(rp))
}

// acquire returns the ASP's image for the RP, staging it into the DRAM
// cache on a miss. Staging costs simulated time at the backing-store rate
// (the SD card the paper boots bitstreams from); a DRAM hit costs nothing
// extra — the DMA streams it straight to the ICAP.
func (e *engine) acquire(asp workload.ASP, st *rpState) (*bitstream.Bitstream, error) {
	key := asp.Name + "@" + st.region.Name
	if bs, ok := e.cache.Get(key); ok {
		return bs, nil
	}
	bs, err := e.images.Image(e.ctrl.Platform().Device, asp, st.region)
	if err != nil {
		return nil, err
	}
	if e.stageRate > 0 {
		d := sim.FromSeconds(float64(bs.Size()) / e.stageRate)
		e.ctrl.Platform().Kernel.RunFor(d)
		e.stageTime += d
	}
	e.cache.Put(key, bs)
	return bs, nil
}

// loadASP performs the partial reconfiguration and the post-load clock
// retarget, accounting into stats. It reports ok=false when the CRC
// read-back rejected the load (the request is dropped, as the paper's
// framework drops requests whose image did not verify).
func (e *engine) loadASP(stats *Stats, st *rpState, asp workload.ASP, bs *bitstream.Bitstream) (bool, error) {
	p := e.ctrl.Platform()
	t0 := p.Kernel.Now()
	res, err := e.ctrl.Load(st.region.Name, bs)
	if err != nil {
		return false, err
	}
	stats.Reconfigs++
	stats.ReconfigTime += p.Kernel.Now().Sub(t0)
	// The load rewrote the whole partition, superseding any pending upset
	// alarm whether or not the new image verified.
	st.alarm = false
	st.suspect = nil
	if !res.CRCValid {
		stats.Failures++
		st.resident = ""
		return false, nil
	}
	st.resident = asp.Name
	// Each RP gets the clock its ASP timing closure allows.
	p.ClockManager.Domain(st.clock).SetFreq(sim.Hz(asp.ClockMHz * 1e6))
	return true, nil
}
