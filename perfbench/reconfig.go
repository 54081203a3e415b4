package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/paperdata"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/pdr"
)

// The reconfig workload: a closed loop on one warm ZedBoard. One operation
// is one SetFrequencyMHz plus one LoadASP; the loop cycles through every
// completing Table I frequency × RP1–RP4 × the planner's four-ASP mix, in
// an order drawn from the seed. Images are built in set-up.

var reconfigRPs = []string{"RP1", "RP2", "RP3", "RP4"}

// reconfigStep is one operation of the cycle.
type reconfigStep struct {
	row     int // index into completingRows
	rp, asp string
	image   *pdr.Bitstream
}

// reconfigDigest summarises the first timed cycle, which is a pure
// function of the seed. MaxErrPct is the largest relative error of a
// frequency's mean simulated throughput against its Table I row.
type reconfigDigest struct {
	Loads        int
	KernelEvents uint64
	SimPS        int64
	MaxErrPct    float64
	P99OpUS      float64
	LatencySumUS float64
}

type reconfigBench struct {
	sys   *pdr.System
	rows  []paperdata.TableIRow
	cycle []reconfigStep
	next  int
	watts float64

	// The first timed cycle's accumulators, its digest once complete, and
	// the committed reference (default seed only).
	opUS   sim.Sample
	rowMBs []float64 // summed throughput per Table I row
	acc    reconfigDigest
	done   *reconfigDigest
	ref    *reconfigDigest
	ddr    [3]uint64  // bytes, grants, refreshes over the first traced cycle
	allocs sim.Sample // heap objects per traced core.Load
	events uint64     // kernel events over every traced op
}

func newReconfig(seed uint64) (bench, error) {
	sys, err := pdr.NewSystem(pdr.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	b := &reconfigBench{sys: sys, rows: completingRows()}
	b.rowMBs = make([]float64, len(b.rows))
	for row := range b.rows {
		for _, rp := range reconfigRPs {
			for _, asp := range plan.DefaultASPs() {
				img, err := sys.BuildBitstream(rp, asp)
				if err != nil {
					return nil, err
				}
				b.cycle = append(b.cycle, reconfigStep{row: row, rp: rp, asp: asp, image: img})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(b.cycle), func(i, j int) { b.cycle[i], b.cycle[j] = b.cycle[j], b.cycle[i] })
	// Warm the board: one full cycle, every load checked.
	for _, st := range b.cycle {
		if _, err := sys.SetFrequencyMHz(b.rows[st.row].FreqMHz); err != nil {
			return nil, err
		}
		res, err := sys.LoadASP(st.rp, st.asp)
		if err != nil {
			return nil, err
		}
		if err := checkLoad(res, b.rows[st.row]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	top := b.rows[len(b.rows)-1].FreqMHz
	if b.watts, err = plannedWatts([]string{"zedboard"}, top, "round-robin", 0, planWorkload(seed)); err != nil {
		return nil, err
	}
	if seed == DefaultSeed {
		ref := referenceReconfig
		b.ref = &ref
	}
	return b, nil
}

func (b *reconfigBench) minOps() int { return len(b.cycle) }

func (b *reconfigBench) op() error {
	st := b.cycle[b.next%len(b.cycle)]
	b.next++
	k := b.sys.Platform().Kernel
	t0, e0 := k.Now(), k.Fired()
	if _, err := b.sys.SetFrequencyMHz(b.rows[st.row].FreqMHz); err != nil {
		return err
	}
	res, err := b.sys.LoadASP(st.rp, st.asp)
	if err != nil {
		return err
	}
	return b.record(st, res, k.Now().Sub(t0), k.Fired()-e0)
}

func (b *reconfigBench) tracedOp(tr *tracer) error {
	st := b.cycle[b.next%len(b.cycle)]
	b.next++
	first := b.done == nil
	tr.nextOp()
	k := b.sys.Platform().Kernel
	ddr := b.sys.Platform().DDR
	t0, e0 := k.Now(), k.Fired()
	tr.begin("op")
	tr.begin("clock.SetFrequencyMHz")
	_, err := b.sys.SetFrequencyMHz(b.rows[st.row].FreqMHz)
	tr.end()
	if err != nil {
		tr.end()
		return err
	}
	by0, gr0, rf0 := ddr.Stats()
	o0, _ := allocs()
	tr.begin("core.Load")
	res, err := b.sys.Controller.Load(st.rp, st.image)
	tr.end()
	tr.end()
	o1, _ := allocs()
	if err != nil {
		return err
	}
	b.allocs.Add(float64(o1 - o0))
	b.events += k.Fired() - e0
	if first {
		by1, gr1, rf1 := ddr.Stats()
		b.ddr[0] += by1 - by0
		b.ddr[1] += gr1 - gr0
		b.ddr[2] += rf1 - rf0
	}
	return b.record(st, res, k.Now().Sub(t0), k.Fired()-e0)
}

// record checks one load and folds it into the first cycle's digest; the
// operation completing that cycle also checks the digest against the
// reference.
func (b *reconfigBench) record(st reconfigStep, res pdr.Result, simOp sim.Duration, events uint64) error {
	err := checkLoad(res, b.rows[st.row])
	if b.done != nil {
		return err
	}
	b.acc.Loads++
	b.acc.KernelEvents += events
	b.acc.SimPS += int64(simOp)
	b.acc.LatencySumUS += res.LatencyUS
	b.rowMBs[st.row] += res.ThroughputMBs
	b.opUS.Add(simOp.Microseconds())
	if b.acc.Loads < len(b.cycle) {
		return err
	}
	d := b.acc
	perRow := float64(len(b.cycle) / len(b.rows))
	for i, row := range b.rows {
		d.MaxErrPct = math.Max(d.MaxErrPct, errPct(b.rowMBs[i]/perRow, row.ThroughputMBs))
	}
	d.P99OpUS = b.opUS.Quantile(0.99)
	b.done = &d
	if err == nil && b.ref != nil && d != *b.ref {
		err = fmt.Errorf("first cycle %s differs from the reference %s", digestString(d), digestString(*b.ref))
	}
	return err
}

func (b *reconfigBench) digest() string {
	if b.done == nil {
		return "incomplete"
	}
	return digestString(*b.done)
}

func (b *reconfigBench) simMetrics() map[string]float64 {
	d := b.done
	if d == nil {
		return nil
	}
	return map[string]float64{
		"paper_err_pct":   d.MaxErrPct,
		"sim_p99_ms":      d.P99OpUS / 1e3,
		"sim_goodput_rps": float64(d.Loads) / (float64(d.SimPS) / 1e12),
		"plan_watts":      b.watts,
	}
}

func (b *reconfigBench) layerMetrics(tr *tracer) map[string]float64 {
	d := b.done
	if d == nil {
		return nil
	}
	n := float64(d.Loads)
	hostNS := 0.0
	for _, name := range []string{"clock.SetFrequencyMHz", "core.Load"} {
		s := tr.sample(name, time.Nanosecond)
		hostNS += s.Mean() * float64(s.N())
	}
	return map[string]float64{
		"sim.events_per_op":       float64(d.KernelEvents) / n,
		"sim.ns_per_event":        hostNS / float64(b.events),
		"clock.set_us":            tr.median("clock.SetFrequencyMHz", time.Microsecond),
		"core.load_us":            tr.median("core.Load", time.Microsecond),
		"core.allocs_per_load":    b.allocs.Mean(),
		"core.sim_load_us":        d.LatencySumUS / n,
		"dram.bytes_per_load":     float64(b.ddr[0]) / n,
		"dram.grants_per_load":    float64(b.ddr[1]) / n,
		"dram.refreshes_per_load": float64(b.ddr[2]) / n,
	}
}
