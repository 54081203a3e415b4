package cluster

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fleetShape is one configuration the parallel-equality matrix exercises:
// every code path with cross-board state (routing, chaos, health, hedging,
// autoscaling, sample merge) must produce byte-identical output whatever
// the worker count.
type fleetShape struct {
	name  string
	trace workload.ArrivalSpec
	seed  uint64
	n     int
	cfg   func(workers int) FleetConfig
}

func parallelShapes() []fleetShape {
	plainSpec := workload.ArrivalSpec{RatePerSec: 800, Deadline: 20 * sim.Millisecond}
	chaosSpec := workload.ArrivalSpec{
		RatePerSec: 600,
		Skew:       1.1,
		Deadline:   20 * sim.Millisecond,
		Tenants:    []string{"alpha", "beta"},
	}
	return []fleetShape{
		{
			name: "least-outstanding", trace: plainSpec, seed: 7, n: 96,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: zedboards(4), Seed: 42, FreqMHz: 200, Workers: w,
					Router:  LeastOutstanding(),
					Service: ServiceTemplate{Prewarm: testASPs},
				}
			},
		},
		{
			name: "weighted-mixed", trace: plainSpec, seed: 11, n: 72,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: []BoardSpec{
						{Platform: "zedboard"}, {Platform: "zybo-z7-10"}, {Platform: "zc706"},
					},
					Seed: 42, FreqMHz: 200, Workers: w,
					Router:  Weighted(),
					Service: ServiceTemplate{CacheBudgetImages: 4},
				}
			},
		},
		{
			name: "affinity-cold", trace: plainSpec, seed: 13, n: 96,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: zedboards(4), Seed: 42, FreqMHz: 200, Workers: w,
					Router:  Affinity(),
					Service: ServiceTemplate{CacheBudgetImages: 2},
				}
			},
		},
		{
			// Chaos with every fault class plus hedging: completions race
			// the health layer's probe/ejection bookkeeping unless the epoch
			// merge keeps them in board-index order.
			name: "chaos-hedge", trace: chaosSpec, seed: 17, n: 144,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: zedboards(3), Seed: 42, FreqMHz: 200, Workers: w,
					Router: LeastOutstanding(),
					Chaos: &ChaosConfig{
						Schedule: []chaos.Event{
							{At: 20 * sim.Millisecond, Board: 1, Kind: chaos.HeatOn, TempC: 80},
							{At: 40 * sim.Millisecond, Board: 0, Kind: chaos.BoardDown},
							{At: 60 * sim.Millisecond, Board: 1, Kind: chaos.HeatOff},
							{At: 80 * sim.Millisecond, Board: 0, Kind: chaos.BoardUp},
						},
						ProbeEvery: 20 * sim.Millisecond,
						Hedge:      true,
					},
					Service: ServiceTemplate{},
				}
			},
		},
		{
			// The autoscaler observes completions mid-epoch: the shape that
			// forces the per-board completion buffers to reproduce the
			// sequential insertion order exactly.
			name: "scaler-reactive", trace: chaosSpec, seed: 19, n: 144,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: zedboards(4), Seed: 42, FreqMHz: 200, Workers: w,
					Router: LeastOutstanding(),
					Autoscaler: &AutoscalerConfig{
						Window: 25 * sim.Millisecond,
						Min:    1, Max: 4,
						ShedHi: 0.01, P99HiUS: (20 * sim.Millisecond).Microseconds(),
						ShedLo: -1, P99LoUS: 0,
					},
					Service: ServiceTemplate{},
				}
			},
		},
		{
			name: "scaler-predictive", trace: chaosSpec, seed: 23, n: 144,
			cfg: func(w int) FleetConfig {
				return FleetConfig{
					Boards: zedboards(4), Seed: 42, FreqMHz: 200, Workers: w,
					Router: LeastOutstanding(),
					Autoscaler: &AutoscalerConfig{
						Window: 25 * sim.Millisecond,
						Min:    1, Max: 4,
						Policy: ScalerPredictive, BoardRatePerSec: 200,
					},
					Service: ServiceTemplate{},
				}
			},
		},
	}
}

// TestFleetParallelMatchesSequential is the tentpole's equality bar: for
// every fleet shape, serving on 4 and 8 workers must produce output
// DeepEqual to the sequential loop — not statistically close, identical,
// down to the insertion order of every latency sample.
func TestFleetParallelMatchesSequential(t *testing.T) {
	for _, shape := range parallelShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			run := func(workers int) *FleetStats {
				f := mustFleet(t, shape.cfg(workers))
				st, err := f.Serve(mustTrace(t, shape.trace, shape.seed, shape.n, f.RPNames()))
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			seq := run(1)
			for _, w := range []int{4, 8} {
				if par := run(w); !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d output diverges from sequential", w)
				}
			}
		})
	}
}

// TestFleetHundredBoardsSmoke is the scale point: a 100-board fleet on 8
// workers serves a stream, merges every board's samples into the
// aggregate, and stays byte-identical to the sequential run.
func TestFleetHundredBoardsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100-board smoke skipped in -short mode")
	}
	build := func(workers int) FleetConfig {
		return FleetConfig{
			Boards: zedboards(100), Seed: 42, FreqMHz: 200, Workers: workers,
			Router:  LeastOutstanding(),
			Service: ServiceTemplate{Prewarm: testASPs},
		}
	}
	run := func(workers int) *FleetStats {
		f := mustFleet(t, build(workers))
		spec := workload.ArrivalSpec{RatePerSec: 4000, Deadline: 20 * sim.Millisecond}
		st, err := f.Serve(mustTrace(t, spec, 31, 400, f.RPNames()))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	par := run(8)
	if par.Arrivals != 400 {
		t.Errorf("arrivals = %d, want 400", par.Arrivals)
	}
	if len(par.Boards) != 100 {
		t.Fatalf("boards = %d, want 100", len(par.Boards))
	}
	if par.Aggregate.Completed == 0 || par.Aggregate.SojournUS.N() != par.Aggregate.Completed {
		t.Errorf("sojourn samples %d ≠ completed %d", par.Aggregate.SojournUS.N(), par.Aggregate.Completed)
	}
	if seq := run(1); !reflect.DeepEqual(seq, par) {
		t.Error("100-board parallel run diverges from sequential")
	}
}

// TestFleetWorkersBeyondBoardsClamped pins the fan-out clamp: more workers
// than boards must not change anything (including not deadlocking on an
// empty claim range).
func TestFleetWorkersBeyondBoardsClamped(t *testing.T) {
	run := func(workers int) *FleetStats {
		f := mustFleet(t, FleetConfig{
			Boards: zedboards(2), Seed: 42, FreqMHz: 200, Workers: workers,
			Router:  LeastOutstanding(),
			Service: ServiceTemplate{Prewarm: testASPs},
		})
		spec := workload.ArrivalSpec{RatePerSec: 700, Deadline: 20 * sim.Millisecond}
		st, err := f.Serve(mustTrace(t, spec, 37, 48, f.RPNames()))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if !reflect.DeepEqual(run(1), run(64)) {
		t.Error("worker clamp changed the output")
	}
}
