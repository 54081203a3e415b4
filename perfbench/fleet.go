package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pdr"
)

// The fleet workload: an open-loop stream generated in set-up from the
// seed and replayed by every operation. One operation is one Serve of the
// whole stream on freshly built boards — cluster.New plus Fleet.Serve,
// exactly what pdr.Fleet.Serve does.
const (
	fleetRate        = 200.0 // req/s, below the fleet's knee: nothing is shed
	fleetRequests    = 1000
	fleetSkew        = 1.1 // Zipf popularity over RPs and ASPs
	fleetFreqMHz     = 200.0
	fleetRouter      = "least-outstanding"
	fleetCacheImages = 12 // per board, below the 18-image working set
	fleetPrewarm     = 2  // hottest ASPs staged on every board before a Serve
	fleetDeadline    = 20 * sim.Millisecond
)

var fleetBoards = []string{"zedboard", "zedboard", "zybo-z7-10", "zc706"}

// fleetDigest is the simulated output of one Serve.
type fleetDigest struct {
	KernelEvents                     uint64
	Offered, Completed, Shed, Failed int
	Lost, DeadlineMisses, Reconfigs  int
	Hits, Misses, Evictions          int
	P99US                            float64
	MakespanPS                       int64
}

type fleetBench struct {
	seed   uint64
	specs  []cluster.BoardSpec
	rps    []string
	asps   []string
	trace  workload.Trace
	errPct float64
	watts  float64

	ref, first *fleetDigest
	stats      *cluster.FleetStats // the first operation's

	// Traced-run tallies.
	serveAllocs sim.Sample // heap objects per Fleet.Serve
	buildAllocs sim.Sample // heap bytes per ASP.Bitstream
}

func newFleet(seed uint64) (bench, error) {
	b := &fleetBench{seed: seed}
	for _, name := range fleetBoards {
		b.specs = append(b.specs, cluster.BoardSpec{Platform: name})
	}
	var err error
	if b.rps, err = cluster.CommonRPs(b.specs); err != nil {
		return nil, err
	}
	for _, a := range workload.Library() {
		b.asps = append(b.asps, a.Name)
	}
	if b.trace, err = b.generate(); err != nil {
		return nil, err
	}
	if b.errPct, err = tableIProbe(seed); err != nil {
		return nil, err
	}
	w := planWorkload(seed)
	w.RatePerSec, w.Requests, w.ASPs = fleetRate, fleetRequests, b.asps
	if b.watts, err = plannedWatts(fleetBoards, fleetFreqMHz, fleetRouter, fleetCacheImages, w); err != nil {
		return nil, err
	}
	if seed == DefaultSeed {
		ref := referenceFleet
		b.ref = &ref
	}
	return b, nil
}

// generate draws the stream from the seed.
func (b *fleetBench) generate() (workload.Trace, error) {
	spec := workload.ArrivalSpec{RatePerSec: fleetRate, Skew: fleetSkew, Deadline: fleetDeadline}
	return spec.Generate(b.seed, fleetRequests, b.rps, b.asps)
}

// config is the fleet of one operation; routers carry state, so each
// operation gets its own.
func (b *fleetBench) config() (cluster.FleetConfig, error) {
	router, err := cluster.RouterByName(fleetRouter)
	if err != nil {
		return cluster.FleetConfig{}, err
	}
	return cluster.FleetConfig{
		Boards:  b.specs,
		Seed:    b.seed,
		FreqMHz: fleetFreqMHz,
		Router:  router,
		Service: cluster.ServiceTemplate{
			CacheBudgetImages: fleetCacheImages,
			Prewarm:           b.asps[:fleetPrewarm],
		},
	}, nil
}

func (b *fleetBench) minOps() int { return 1 }

func (b *fleetBench) op() error {
	cfg, err := b.config()
	if err != nil {
		return err
	}
	f, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	st, err := f.Serve(b.trace)
	if err != nil {
		return err
	}
	return b.check(st)
}

func (b *fleetBench) tracedOp(tr *tracer) error {
	tr.nextOp()
	cfg, err := b.config()
	if err != nil {
		return err
	}
	tr.begin("op")
	tr.begin("cluster.New")
	f, err := cluster.New(cfg)
	tr.end()
	if err != nil {
		tr.end()
		return err
	}
	o0, _ := allocs()
	tr.begin("cluster.Fleet.Serve")
	st, err := f.Serve(b.trace)
	tr.end()
	tr.end()
	o1, _ := allocs()
	if err != nil {
		return err
	}
	b.serveAllocs.Add(float64(o1 - o0))
	if err := b.check(st); err != nil {
		return err
	}
	return b.probe(tr)
}

// probe times the layers the operation reaches only from inside: stream
// generation, device construction, image builds over the working set, and
// the same operation with the obs tracer attached.
func (b *fleetBench) probe(tr *tracer) error {
	tr.begin("probe")
	defer tr.end()
	tr.begin("workload.Generate")
	_, err := b.generate()
	tr.end()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, name := range fleetBoards {
		if seen[name] {
			continue
		}
		seen[name] = true
		prof, ok := platform.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown platform %q", name)
		}
		tr.begin("platform.NewDevice")
		dev := prof.NewDevice()
		tr.end()
		regions := prof.RPs(dev)
		for _, a := range workload.Library() {
			for _, r := range regions[:len(b.rps)] {
				_, by0 := allocs()
				tr.begin("bitstream.Build")
				_, err := a.Bitstream(dev, r)
				tr.end()
				_, by1 := allocs()
				if err != nil {
					return err
				}
				b.buildAllocs.Add(float64(by1 - by0))
			}
		}
	}
	cfg, err := b.config()
	if err != nil {
		return err
	}
	cfg.Trace = pdr.NewTracer().Fleet("fleet/00", "perfbench")
	tr.begin("op+obs")
	f, err := cluster.New(cfg)
	if err != nil {
		tr.end()
		return err
	}
	st, err := f.Serve(b.trace)
	tr.end()
	if err != nil {
		return err
	}
	return b.check(st)
}

// check verifies one Serve: every board accounts for every offered request
// (completed, shed, CRC-failed or lost), and the simulated output equals
// the run's first and, on the default seed, the committed reference.
func (b *fleetBench) check(st *cluster.FleetStats) error {
	for _, bs := range st.Boards {
		s := bs.Stats
		if got := s.Completed + s.Shed + s.Failures + s.Lost; got != s.Offered {
			return fmt.Errorf("board %d: offered %d, accounted %d", bs.Index, s.Offered, got)
		}
	}
	a := st.Aggregate
	d := fleetDigest{
		KernelEvents: st.KernelEvents,
		Offered:      a.Offered, Completed: a.Completed, Shed: a.Shed, Failed: a.Failures,
		Lost: a.Lost, DeadlineMisses: a.DeadlineMisses, Reconfigs: a.Reconfigs,
		Hits: a.Cache.Hits, Misses: a.Cache.Misses, Evictions: a.Cache.Evictions,
		P99US:      a.SojournUS.Quantile(0.99),
		MakespanPS: int64(a.Makespan),
	}
	if b.first == nil {
		b.first, b.stats = &d, st
	}
	if d != *b.first {
		return fmt.Errorf("serve %s differs from the run's first %s", digestString(d), digestString(*b.first))
	}
	if b.ref != nil && d != *b.ref {
		return fmt.Errorf("serve %s differs from the reference %s", digestString(d), digestString(*b.ref))
	}
	return nil
}

func (b *fleetBench) digest() string {
	if b.first == nil {
		return "none"
	}
	return digestString(*b.first)
}

func (b *fleetBench) simMetrics() map[string]float64 {
	if b.first == nil {
		return nil
	}
	return map[string]float64{
		"paper_err_pct":   b.errPct,
		"sim_p99_ms":      b.first.P99US / 1e3,
		"sim_goodput_rps": b.stats.GoodputPerSec(),
		"plan_watts":      b.watts,
	}
}

func (b *fleetBench) layerMetrics(tr *tracer) map[string]float64 {
	st := b.stats
	if st == nil {
		return nil
	}
	a := st.Aggregate
	sojourn := a.SojournUS.Mean() * float64(a.SojournUS.N())
	serveMS := tr.median("cluster.Fleet.Serve", time.Millisecond)
	opMS := tr.median("op", time.Millisecond)
	prewarm := len(st.Boards) * fleetPrewarm * len(b.rps)
	return map[string]float64{
		"sim.events_per_op":        float64(st.KernelEvents),
		"sim.ns_per_event":         serveMS * 1e6 / float64(st.KernelEvents),
		"workload.gen_ms":          tr.median("workload.Generate", time.Millisecond),
		"platform.new_device_ms":   tr.median("platform.NewDevice", time.Millisecond),
		"bitstream.build_ms":       tr.median("bitstream.Build", time.Millisecond),
		"bitstream.mb_per_build":   b.buildAllocs.Mean() / 1e6,
		"bitstream.builds_per_op":  float64(prewarm + a.Cache.Misses),
		"sched.cache_hit_ratio":    a.Cache.HitRatio(),
		"sched.misses_per_op":      float64(a.Cache.Misses),
		"sched.evictions_per_op":   float64(a.Cache.Evictions),
		"sched.shed_per_op":        float64(a.Shed),
		"hll.queue_wait_p99_ms":    a.QueueWaitUS.Quantile(0.99) / 1e3,
		"hll.queue_share":          a.QueueWaitUS.Mean() * float64(a.QueueWaitUS.N()) / sojourn,
		"hll.stage_share":          a.StageTime.Microseconds() / sojourn,
		"hll.reconfig_share":       a.ReconfigTime.Microseconds() / sojourn,
		"hll.compute_share":        a.ComputeTime.Microseconds() / sojourn,
		"cluster.build_ms":         tr.median("cluster.New", time.Millisecond),
		"cluster.serve_ms":         serveMS,
		"cluster.allocs_per_serve": b.serveAllocs.Mean(),
		"obs.trace_overhead_pct":   (1 - opMS/tr.median("op+obs", time.Millisecond)) * 100,
	}
}
