// fleet: the reconfiguration service scaled out — a simulated fleet of
// boards behind a request router, the layer that turns one ZedBoard's
// saturation knee into a capacity-planning question. The run shows the
// three levers the fleet layer adds on top of a single board's service:
//
//  1. fleet size: offered load far above one board's knee spreads across
//     boards, and goodput scales until the stream itself is the limit;
//  2. the routing policy: when per-board caches cannot hold the working
//     set, bitstream-affinity routing (consistent hashing on the image)
//     keeps each image on one board's cache while round-robin thrashes
//     every cache at once;
//  3. the autoscaler: a reactive scaler grows the active fleet from one
//     board until windowed shed-rate and p99 fall back under threshold.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/pdr"
)

var asps = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func serve(opts pdr.FleetOptions, spec pdr.ArrivalSpec, n int) *pdr.FleetStats {
	opts.Seed = 42
	f, err := pdr.NewFleet(opts)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := f.OpenTrace(spec, 7, n, asps)
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
	load := pdr.ArrivalSpec{RatePerSec: 1600, Deadline: 20 * sim.Millisecond}

	fmt.Println("— goodput vs fleet size at 1600 req/s (one board saturates ≈800) —")
	for _, n := range []int{1, 2, 4} {
		st := serve(pdr.FleetOptions{
			Boards:  make([]string, n), // n default ZedBoards
			Router:  "least-outstanding",
			Service: pdr.ServiceConfig{Prewarm: asps},
		}, load, 192)
		fmt.Printf("%d board(s): goodput %5.0f req/s  p99 %6.2f ms  deadline misses %3d/%d\n",
			n, st.GoodputPerSec(), st.Aggregate.SojournUS.Quantile(0.99)/1000,
			st.Aggregate.DeadlineMisses, st.Aggregate.Completed)
	}

	fmt.Println("\n— routing policies, cold 5-image caches vs a 16-image working set —")
	skewed := pdr.ArrivalSpec{RatePerSec: 400, Skew: 1.1, Deadline: 20 * sim.Millisecond}
	for _, router := range pdr.Routers() {
		st := serve(pdr.FleetOptions{
			Boards: make([]string, 4),
			Router: router,
			// Five images/board: residency is earned by routing.
			Service: pdr.ServiceConfig{CacheBudgetImages: 5},
		}, skewed, 192)
		fmt.Printf("%-17s: hit ratio %3.0f%%  p99 %6.2f ms\n",
			router, 100*st.CacheHitRatio(), st.Aggregate.SojournUS.Quantile(0.99)/1000)
	}

	fmt.Println("\n— autoscaler: grow from 1 board under pressure —")
	st := serve(pdr.FleetOptions{
		Boards: make([]string, 4),
		Router: "least-outstanding",
		Autoscale: &pdr.AutoscalePolicy{
			Window:  25 * sim.Millisecond,
			Min:     1,
			Max:     4,
			ShedHi:  0.01,
			P99HiUS: (20 * sim.Millisecond).Microseconds(),
			ShedLo:  0,
			P99LoUS: (2 * sim.Millisecond).Microseconds(),
		},
		Service: pdr.ServiceConfig{Prewarm: asps},
	}, load, 192)
	for _, ev := range st.ScaleEvents {
		fmt.Printf("t=%6.1f ms: %d → %d boards (%s)\n", ev.AtUS/1000, ev.From, ev.To, ev.Reason)
	}
	fmt.Printf("settled at %d active board(s), peak %d; fleet p99 %.2f ms\n",
		st.FinalActive, st.PeakActive, st.Aggregate.SojournUS.Quantile(0.99)/1000)

	fmt.Println("\nthe router keeps caches warm and the scaler sizes the fleet — the knee is now a budget, not a wall")
}
