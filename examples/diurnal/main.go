// diurnal: replaying a day of traffic against the fleet's autoscaler — a
// diurnal rate curve (quiet night, morning ramp, afternoon plateau) with a
// flash crowd spiking on top, served twice on identical six-board fleets:
// once with the reactive scaler (grow one board per window on shed
// pressure) and once with the predictive one (forecast the next window's
// rate with Holt smoothing and pre-provision to it). The flash ramps
// faster than any forecast horizon, so the comparison isolates recovery:
// the forecaster retargets several boards after one window of observation,
// while the reactive policy pays one shedding window per board it is
// short.
//
// The run also round-trips the stream through the versioned trace format:
// export → import reproduces the exact request sequence, so a recorded day
// can be replayed against any policy change.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/pdr"
)

var asps = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

// One simulated "hour" compressed to 20 ms: the whole day is 480 ms of
// stream time, and the autoscaler window matches the hour.
const hour = 20 * sim.Millisecond

func day() *pdr.RateCurve {
	at := func(h int) sim.Duration { return sim.Duration(h) * hour }
	return &pdr.RateCurve{
		Points: []pdr.RatePoint{
			{At: at(0), RatePerSec: 150}, {At: at(5), RatePerSec: 120},
			{At: at(8), RatePerSec: 350}, {At: at(12), RatePerSec: 450},
			{At: at(16), RatePerSec: 420}, {At: at(20), RatePerSec: 250},
			{At: at(24), RatePerSec: 150},
		},
		// The flash crowd: +1200 req/s ramping in one hour at 16:00,
		// holding two, decaying in one.
		Flashes: []pdr.Flash{{Start: at(16), Ramp: hour, Hold: 2 * hour, Decay: hour, PeakPerSec: 1200}},
	}
}

func serveDay(tr pdr.Trace, policy pdr.ScalerPolicy) *pdr.FleetStats {
	f, err := pdr.NewFleet(pdr.FleetOptions{
		Boards: make([]string, 6), // six default ZedBoards, cold caches
		Seed:   42,
		Router: "least-outstanding",
		Autoscale: &pdr.AutoscalePolicy{
			Window:          hour,
			Min:             1,
			Max:             6,
			ShedHi:          0.01,
			P99HiUS:         1e6, // growth is shed-driven in this demo
			ShedLo:          0,
			P99LoUS:         (20 * sim.Millisecond).Microseconds(),
			Policy:          policy,
			BoardRatePerSec: 200,
		},
		Service: pdr.ServiceConfig{QueueCap: 8}, // shallow queues: excess demand sheds in-window
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := f.Serve(tr)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func main() {
	spec := pdr.ArrivalSpec{
		Curve:    day(),
		Deadline: 20 * sim.Millisecond,
		Classes: []pdr.SLOClass{
			{Name: "latency", Deadline: 20 * sim.Millisecond, Weight: 3},
			{Name: "batch", Deadline: 120 * sim.Millisecond, Weight: 1},
		},
	}
	f, err := pdr.NewFleet(pdr.FleetOptions{Boards: make([]string, 6)})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := f.OpenTraceUntil(spec, 7, 24*hour, asps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one simulated day: %d arrivals, flash crowd at hour 16\n\n", len(tr))

	for _, policy := range []pdr.ScalerPolicy{pdr.ScalerReactive, pdr.ScalerPredictive} {
		st := serveDay(tr, policy)
		agg := st.Aggregate
		fmt.Printf("— %s scaler —\n", policy)
		fmt.Printf("completed %d  shed %d  goodput %.0f req/s  active peak/final %d/%d\n",
			agg.Completed, agg.Shed, st.GoodputPerSec(), st.PeakActive, st.FinalActive)
		for _, name := range agg.ClassNames() {
			c := agg.Classes[name]
			fmt.Printf("  class %-8s offered %3d  completed %3d  deadline misses %3d\n",
				name, c.Offered, c.Completed, c.DeadlineMisses)
		}
		fmt.Println("  staffing (active boards per hour):")
		fmt.Print("  ")
		for _, w := range st.Windows {
			fmt.Printf("%d", w.Active)
		}
		fmt.Println()
		fmt.Println()
	}

	// Round-trip the day through the versioned trace format.
	data, err := pdr.ExportTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	back, err := pdr.ImportTrace(data)
	if err != nil {
		log.Fatal(err)
	}
	again, err := pdr.ExportTrace(back)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace file: schema v%d, %d bytes, export→import→export identical: %v\n",
		pdr.TraceFileVersion, len(data), string(data) == string(again))
}
