// chaosfleet: the fleet layer under fire — a seeded fault storm replayed
// against a warm four-board fleet with the self-healing machinery on. The
// storm is part of the experiment configuration (same seed ⇒ byte-identical
// event list), so a chaos run is exactly as reproducible as a calm one.
//
// The run shows the three halves of the robustness story:
//
//  1. the storm: board crashes, a thermal excursion into the throttle
//     regime, and CRC glitches against resident images, all drawn from one
//     seeded schedule every routing policy replays identically;
//  2. self-healing: failover on refused connections, CRC-verdict outlier
//     ejection, thermal throttling, frame-addressed scrub repair, and an
//     autoscaler that replaces dead capacity;
//  3. the headline: affinity routing degrades worst under a crash — the
//     dead board's keys funnel onto its single ring successor — while
//     least-outstanding degrades gracefully because queue depth already
//     encodes board health.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/pdr"
)

var asps = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func main() {
	// The storm: seeded, deterministic, clipped to the stream horizon.
	storm := pdr.FaultStorm{
		Seed:           99,
		Horizon:        240 * sim.Millisecond,
		Boards:         4,
		Crashes:        2,
		Outage:         60 * sim.Millisecond,
		Excursions:     1,
		ExcursionTempC: 85,
		Dwell:          50 * sim.Millisecond,
		Glitches:       4,
		GlitchFrames:   2,
	}
	schedule, err := storm.Schedule()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— the storm (same events for every policy) —")
	for _, ev := range schedule {
		extra := ""
		switch {
		case ev.TempC > 0:
			extra = fmt.Sprintf(" → %.0f °C", ev.TempC)
		case ev.Frames > 0:
			extra = fmt.Sprintf(" (%d frames)", ev.Frames)
		}
		fmt.Printf("t=%6.1f ms  board %d  %s%s\n",
			float64(ev.At)/float64(sim.Millisecond), ev.Board, ev.Kind, extra)
	}

	// The same warm fleet and the same arrival stream for every policy:
	// 1600 req/s across four boards is comfortable (~400 req/s each), so
	// everything that goes wrong is the storm's doing.
	load := pdr.ArrivalSpec{RatePerSec: 1600, Skew: 1.1, Deadline: 20 * sim.Millisecond}
	fmt.Println("\n— routing policies through the identical storm —")
	for _, router := range pdr.Routers() {
		f, err := pdr.NewFleet(pdr.FleetOptions{
			Boards: make([]string, 4), // four default ZedBoards
			Seed:   42,
			Router: router,
			Service: pdr.ServiceConfig{
				Prewarm: asps,    // warm caches: a crash erases real warmth
				Repair:  "scrub", // frame-addressed repair, not a full reload
			},
			Chaos: &pdr.ChaosPolicy{Schedule: schedule},
			Autoscale: &pdr.AutoscalePolicy{
				Window:  25 * sim.Millisecond,
				Min:     3, // one short of full: the scaler must replace dead capacity
				Max:     4,
				ShedHi:  0.01,
				P99HiUS: (20 * sim.Millisecond).Microseconds(),
				ShedLo:  -1, // never shrink mid-storm
				P99LoUS: 0,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		tr, err := f.OpenTrace(load, 7, 384, asps)
		if err != nil {
			log.Fatal(err)
		}
		st, err := f.Serve(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s: avail %5.1f%%  goodput %4.0f req/s  p99 %6.2f ms  lost %2d  failed over %2d  repairs %d\n",
			router, 100*st.Availability(), st.GoodputPerSec(),
			st.Aggregate.SojournUS.Quantile(0.99)/1000,
			st.Aggregate.Lost, st.FailedOver, st.Aggregate.Repairs)
	}

	fmt.Println("\nqueue depth already encodes board health — consistent hashing does not: under a crash, affinity funnels the dead board's keys onto one survivor while least-outstanding spreads them")
}
