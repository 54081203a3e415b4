package pdr_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/srampdr"
	"repro/pdr"
)

// Boot the simulated ZedBoard, over-clock the configuration path to the
// paper's power-efficiency knee (200 MHz), load one accelerator into a
// reconfigurable partition and print what the paper's OLED showed —
// latency, throughput and the CRC verdict.
func ExampleSystem_LoadASP() {
	sys, err := pdr.NewSystem(pdr.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	// Nominal first: the 100 MHz the DMA and ICAP are specified for.
	res, err := sys.LoadASP("RP1", "fir128")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal 100 MHz : %8.2f µs  %7.2f MB/s  CRC valid=%v\n",
		res.LatencyUS, res.ThroughputMBs, res.CRCValid)

	// Over-clock to the knee: same standard IP blocks, double the rate.
	if _, err := sys.SetFrequencyMHz(200); err != nil {
		log.Fatal(err)
	}
	res, err = sys.LoadASP("RP1", "sha3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boosted 200 MHz : %8.2f µs  %7.2f MB/s  CRC valid=%v\n",
		res.LatencyUS, res.ThroughputMBs, res.CRCValid)

	fmt.Printf("die %.1f °C, board %.2f W (P_PDR %.2f W)\n",
		sys.DieTempC(), sys.BoardPowerW(), sys.PDRPowerW())
	// Output:
	// nominal 100 MHz :  1325.04 µs   399.05 MB/s  CRC valid=true
	// boosted 200 MHz :   675.50 µs   782.76 MB/s  CRC valid=true
	// die 33.6 °C, board 3.47 W (P_PDR 1.27 W)
}

// The introduction's motivating workload: one FPGA serving more
// accelerator personalities than fit at once, swapping ASPs on demand
// across the four reconfigurable partitions (Fig. 1). The same trace runs
// at the nominal 100 MHz and at the over-clocked 200 MHz knee: the same
// hardware, half the dead time.
func ExampleSystem_Framework() {
	for _, f := range []float64{100, 200} {
		sys, err := pdr.NewSystem(pdr.WithSeed(11))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.SetFrequencyMHz(f); err != nil {
			log.Fatal(err)
		}
		// 60 Poisson requests (300 µs mean gap) over 4 RPs and 5 ASP
		// personalities: enough churn that most requests need a swap.
		trace, err := sys.OpenTrace(pdr.ArrivalSpec{RatePerSec: 1e6 / 300}, 23, 60,
			[]string{"fir128", "fft1k", "aes-gcm", "sha3", "decimal-fpu"})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := sys.Framework().Run(trace)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("@%3.0f MHz: %d requests (%d swaps, %d hits), makespan %v\n",
			f, stats.Requests, stats.Reconfigs, stats.Hits, stats.Makespan)
		fmt.Printf("          reconfig %v, compute %v → overhead %.1f%%\n",
			stats.ReconfigTime, stats.ComputeTime, 100*stats.OverheadFraction())
	}
	fmt.Println("over-clocking the configuration path cuts the swap tax without touching the ASPs")
	// Output:
	// @100 MHz: 60 requests (48 swaps, 12 hits), makespan 142.711ms
	//           reconfig 127.014ms, compute 15.530ms → overhead 89.0%
	// @200 MHz: 60 requests (48 swaps, 12 hits), makespan 79.830ms
	//           reconfig 64.132ms, compute 15.530ms → overhead 80.3%
	// over-clocking the configuration path cuts the swap tax without touching the ASPs
}

// The industrial-IoT scenario behind the "robust" in the paper's title.
// The die is heat-gunned to 100 °C (a factory-floor worst case), an
// aggressive over-clock is attempted, the CRC read-back catches the
// failure, and RobustLoad falls back to a safe frequency and reloads —
// turning a silent corruption into a bounded-latency recovery.
func ExampleSystem_RobustLoad() {
	sys, err := pdr.NewSystem(pdr.WithSeed(17))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("heating die to 100 °C (heat gun on the Zynq heat sink)…")
	if err := sys.HeatTo(100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("die sensor reads %.1f °C\n\n", sys.DieTempC())

	// 310 MHz passes CRC at room temperature but corrupts at 100 °C — the
	// single failing cell of the paper's stress matrix.
	if _, err := sys.SetFrequencyMHz(310); err != nil {
		log.Fatal(err)
	}
	rec, err := sys.RobustLoad("RP1", "decimal-fpu")
	if err != nil {
		log.Fatal(err)
	}
	for i, att := range rec.Attempts {
		verdict := "CRC valid"
		if !att.CRCValid {
			verdict = "CRC NOT valid"
		}
		irq := "interrupt ok"
		if !att.IRQReceived {
			irq = "no interrupt"
		}
		fmt.Printf("attempt %d @ %3.0f MHz (%5.1f °C): %s, %s\n",
			i+1, att.FreqMHz, att.TempC, irq, verdict)
	}
	fmt.Printf("\nrecovered=%v at %.0f MHz; whole episode took %.0f µs\n",
		rec.Recovered, rec.FallbackMHz, rec.TotalUS)
	fmt.Println("without the CRC read-back block this failure would have been silent")

	sys.HeatOff()
	// Output:
	// heating die to 100 °C (heat gun on the Zynq heat sink)…
	// die sensor reads 100.0 °C
	//
	// attempt 1 @ 310 MHz (100.0 °C): no interrupt, CRC NOT valid
	// attempt 2 @ 100 MHz ( 99.9 °C): interrupt ok, CRC valid
	//
	// recovered=true at 100 MHz; whole episode took 4599 µs
	// without the CRC read-back block this failure would have been silent
}

// The paper's method for the most power-efficient implementation
// (Sec. IV-B / VII): sweep the operating frequencies, measure throughput
// and P_PDR from the board's current-sense headers, compute
// performance-per-watt, and pick the knee — clipped to a timing guard band
// at the worst-case deployment temperature so the choice survives a harsh
// environment.
func ExampleSystem_Optimize() {
	sys, err := pdr.NewSystem(pdr.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}

	freqs := []float64{100, 140, 180, 200, 240, 280}
	points, err := sys.PowerGrid("RP1", "aes-gcm", freqs, []float64{40})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("freq [MHz]   P_PDR [W]   throughput [MB/s]   PpW [MB/J]")
	for _, pt := range points {
		fmt.Printf("%7.0f      %6.2f      %10.2f          %6.0f\n",
			pt.FreqMHz, pt.PDRWatts, pt.ThroughputMBs, pt.PpW)
	}

	rec, err := sys.Optimize("RP1", "aes-gcm", freqs, 100 /* worst °C */, 0.10 /* margin */)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended operating point: %.0f MHz (%.0f MB/J, guard band %.0f MHz at 100 °C)\n",
		rec.FreqMHz, rec.PpW, rec.GuardBandMHz)
	fmt.Println("the paper lands in the same place: 200 MHz, ≈599 MB/J — the knee where")
	fmt.Println("throughput has saturated but power keeps rising with frequency")
	// Output:
	// freq [MHz]   P_PDR [W]   throughput [MB/s]   PpW [MB/J]
	//     100        1.14          399.05             350
	//     140        1.21          558.12             461
	//     180        1.27          716.88             564
	//     200        1.31          782.69             597
	//     240        1.37          786.69             574
	//     280        1.44          790.59             549
	//
	// recommended operating point: 200 MHz (597 MB/J, guard band 266 MHz at 100 °C)
	// the paper lands in the same place: 200 MHz, ≈599 MB/J — the knee where
	// throughput has saturated but power keeps rising with frequency
}

// Completes the loop the paper's CRC read-back block opens. In an
// industrial environment configuration memory takes single-event upsets;
// the CRC monitor detects the mismatch, and the scrubber, driven through
// the underlying platform, localises and rewrites only the damaged frames
// through the ICAP — autonomously in the PL, without PS software, DMA
// programming or DDR bandwidth.
func ExampleSystem_Platform() {
	sys, err := pdr.NewSystem(pdr.WithSeed(41))
	if err != nil {
		log.Fatal(err)
	}

	// Configure RP1 and keep the golden image.
	if _, err := sys.SetFrequencyMHz(200); err != nil {
		log.Fatal(err)
	}
	bs, err := sys.BuildBitstream("RP1", "aes-gcm")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Load("RP1", bs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configured RP1 with aes-gcm: %.1f µs, CRC valid=%v\n", res.LatencyUS, res.CRCValid)

	p := sys.Platform()
	rp, err := p.RP("RP1")
	if err != nil {
		log.Fatal(err)
	}

	// A burst of radiation: 12 upsets across the partition.
	inj := scrub.NewInjector(p.Memory, 99)
	if _, err := inj.UpsetRegion(rp, 12); err != nil {
		log.Fatal(err)
	}
	intact, err := p.Memory.RegionEqual(rp, bs.Frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected 12 SEUs; configuration intact=%v\n", intact)

	// Detect and repair.
	scrubber := scrub.New(p.Kernel, p.ICAP)
	var rep scrub.Report
	done := false
	if err := scrubber.Scrub(rp, bs.Frames, func(r scrub.Report, serr error) {
		if serr != nil {
			log.Fatal(serr)
		}
		rep, done = r, true
	}); err != nil {
		log.Fatal(err)
	}
	sys.RunFor(10 * sim.Millisecond)
	if !done {
		log.Fatal("scrub did not finish")
	}
	fmt.Printf("scrub: scanned %d frames, repaired %d, clean=%v, took %v\n",
		rep.FramesScanned, rep.FramesRepaired, rep.Clean, rep.Duration)

	intact, err = p.Memory.RegionEqual(rp, bs.Frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configuration intact after scrub: %v\n", intact)
	fmt.Println("(compare: a full reload moves all 1308 frames through the PS+DMA+DDR path)")
	// Output:
	// configured RP1 with aes-gcm: 675.6 µs, CRC valid=true
	// injected 12 SEUs; configuration intact=false
	// scrub: scanned 1308 frames, repaired 12, clean=true, took 1.327ms
	// configuration intact after scrub: true
	// (compare: a full reload moves all 1308 frames through the PS+DMA+DDR path)
}

// The paper's proposed next-generation reconfiguration environment
// (Sec. VI, Fig. 7). Partial bitstreams are pre-loaded into a QDR-II+ SRAM
// while the current accelerator computes; reconfiguration then streams at
// the SRAM's 1237.5 MB/s — with the RLE decompressor pushing the effective
// rate higher still, because zero runs cost no SRAM bandwidth.
func ExampleSystem_SRAMPipeline() {
	sys, err := pdr.NewSystem(pdr.WithSeed(29))
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := sys.SRAMPipeline()
	if err != nil {
		log.Fatal(err)
	}

	// Baseline for comparison: the measured DMA path at its best (280 MHz).
	if _, err := sys.SetFrequencyMHz(280); err != nil {
		log.Fatal(err)
	}
	dmaRes, err := sys.LoadASP("RP1", "fft1k")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sec. IV  DMA path @280 MHz : %7.2f µs  %8.2f MB/s\n",
		dmaRes.LatencyUS, dmaRes.ThroughputMBs)

	for _, compressed := range []bool{false, true} {
		bs, err := sys.BuildBitstream("RP2", "fft1k")
		if err != nil {
			log.Fatal(err)
		}
		if err := pipe.Register(bs, compressed); err != nil {
			log.Fatal(err)
		}
		// The PS scheduler pre-loads while "the current accelerator is
		// performing its task" — here the copy just runs.
		loaded := false
		if err := pipe.Preload("fft1k", func(p srampdr.Preloaded) { loaded = true }); err != nil {
			log.Fatal(err)
		}
		sys.RunFor(5 * sim.Millisecond)
		if !loaded {
			log.Fatal("preload did not finish")
		}
		var res srampdr.ReconfigResult
		got := false
		if err := pipe.Reconfigure(func(r srampdr.ReconfigResult) { res, got = r, true }); err != nil {
			log.Fatal(err)
		}
		sys.RunFor(5 * sim.Millisecond)
		if !got {
			log.Fatal("reconfigure did not finish")
		}
		mode := "raw       "
		if compressed {
			mode = "compressed"
		}
		fmt.Printf("Sec. VI  SRAM %s   : %7.2f µs  %8.2f MB/s  (SRAM held %d bytes, CRC valid=%v)\n",
			mode, res.LatencyUS, res.ThroughputMBs, res.BytesFromSRAM, res.CRCValid)
	}
	fmt.Printf("paper's theoretical SRAM rate: %.1f MB/s\n", srampdr.TheoreticalThroughputMBs())
	// Output:
	// Sec. IV  DMA path @280 MHz :  668.81 µs    790.59 MB/s
	// Sec. VI  SRAM raw          :  427.39 µs   1237.17 MB/s  (SRAM held 528712 bytes, CRC valid=true)
	// Sec. VI  SRAM compressed   :  247.15 µs   2139.40 MB/s  (SRAM held 263952 bytes, CRC valid=true)
	// paper's theoretical SRAM rate: 1237.5 MB/s
}

// The Fig.-1 framework promoted to a reconfiguration service, serving an
// open-loop Poisson stream of accelerator requests on the four RPs:
// resident ASPs compute concurrently while the single over-clocked ICAP
// swaps the rest. The run shows the two levers the service adds on top of
// the over-clocked controller:
//
//  1. the DRAM bitstream cache: without it every swap re-stages ~529 KB
//     from SD at 20 MB/s and the board saturates at tens of requests per
//     second; with it the knee moves an order of magnitude out;
//  2. the dispatch policy: when the cache cannot hold the working set,
//     residency-affine dispatch batches resident work and cuts the tail.
func ExampleSystem_Serve() {
	asps := []string{"fir128", "sha3", "aes-gcm", "fft1k"}
	serve := func(rate float64, opts pdr.ServeOptions) pdr.ServiceStats {
		sys, err := pdr.NewSystem(pdr.WithSeed(42))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.SetFrequencyMHz(200); err != nil {
			log.Fatal(err)
		}
		spec := pdr.ArrivalSpec{
			RatePerSec: rate,
			Tenants:    []string{"video", "crypto"},
			Deadline:   20 * sim.Millisecond,
		}
		tr, err := sys.OpenTrace(spec, 7, 96, asps)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := sys.Serve(tr, opts)
		if err != nil {
			log.Fatal(err)
		}
		return stats
	}

	fmt.Println("— cache vs no-cache at 200 req/s —")
	for _, mode := range []struct {
		label  string
		budget int64
	}{
		{"DRAM cache (profile budget)", 0},
		{"no cache (SD re-staging)   ", -1},
	} {
		st := serve(200, pdr.ServeOptions{Service: pdr.ServiceConfig{CacheBudgetBytes: mode.budget, Prewarm: asps}})
		fmt.Printf("%s: p50 %6.2f ms  p99 %7.2f ms  deadline misses %d/%d\n",
			mode.label, st.SojournUS.Quantile(0.50)/1000, st.SojournUS.Quantile(0.99)/1000,
			st.DeadlineMisses, st.Completed)
	}

	fmt.Println("\n— dispatch policies under a thrashing 2-image cache, 150 req/s —")
	for _, policy := range pdr.Policies() {
		st := serve(150, pdr.ServeOptions{Service: pdr.ServiceConfig{
			Policy:            policy,
			CacheBudgetImages: 2, // far under the 16-image working set
			Prewarm:           asps,
		}})
		fmt.Printf("%-8s: hit rate %2.0f%%  p99 %7.2f ms  evictions %d\n",
			policy, 100*float64(st.Hits)/float64(st.Requests),
			st.SojournUS.Quantile(0.99)/1000, st.Cache.Evictions)
	}

	fmt.Println("\n— per-tenant view (cached, 200 req/s) —")
	st := serve(200, pdr.ServeOptions{Service: pdr.ServiceConfig{Prewarm: asps}})
	for _, name := range st.TenantNames() {
		ts := st.Tenants[name]
		fmt.Printf("%-7s: offered %2d  completed %2d  deadline misses %d\n",
			name, ts.Offered, ts.Completed, ts.DeadlineMisses)
	}
	fmt.Println("\nthe cache keeps the ICAP the bottleneck (as the paper intends) instead of the SD card")
	// Output:
	// — cache vs no-cache at 200 req/s —
	// DRAM cache (profile budget): p50   1.58 ms  p99    4.04 ms  deadline misses 0/96
	// no cache (SD re-staging)   : p50 783.20 ms  p99 1640.18 ms  deadline misses 95/96
	//
	// — dispatch policies under a thrashing 2-image cache, 150 req/s —
	// fcfs    : hit rate 24%  p99 1514.40 ms  evictions 73
	// sbf     : hit rate 71%  p99  416.85 ms  evictions 28
	// affinity: hit rate 71%  p99  416.85 ms  evictions 28
	//
	// — per-tenant view (cached, 200 req/s) —
	// crypto : offered 57  completed 57  deadline misses 0
	// video  : offered 39  completed 39  deadline misses 0
	//
	// the cache keeps the ICAP the bottleneck (as the paper intends) instead of the SD card
}

// Run a slice of the paper's evaluation as a campaign: the Table I sweep
// and the heat-gun stress matrix, split into shards on two workers. Any
// worker count prints the same bytes; only the wall clock changes.
func ExampleCampaign() {
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithWorkers(2),
		pdr.WithScenarios("E1", "E3"),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range res.Reports {
		fmt.Println(rep.Markdown())
	}
	fmt.Printf("%d scenarios as %d shards on %d workers\n", len(res.Reports), res.Units, res.Workers)
	// Output:
	// ## E1 — Table I — throughput vs. frequency when over-clocking
	//
	// | ICAP freq [MHz] | Config latency [us] | Throughput [MB/s] | CRC | paper latency | paper MB/s |
	// |---|---|---|---|---|---|
	// | 100 | 1325.04 | 399.05 | valid | 1325.60 | 399.06 |
	// | 140 | 947.39 | 558.12 | valid | 947.40 | 558.12 |
	// | 180 | 737.58 | 716.88 | valid | 737.50 | 716.96 |
	// | 200 | 675.47 | 782.80 | valid | 676.30 | 781.84 |
	// | 240 | 672.03 | 786.81 | valid | 671.90 | 786.96 |
	// | 280 | 669.01 | 790.37 | valid | 669.20 | 790.14 |
	// | 310 | N/A no interrupt | N/A | valid | N/A no interrupt | N/A |
	// | 320 | N/A no interrupt | N/A | not valid | N/A no interrupt | N/A |
	// | 360 | N/A no interrupt | N/A | not valid | N/A no interrupt | N/A |
	//
	// - bitstream size 528760 bytes (the size Table I's latency×throughput implies)
	//
	// ## E3 — Sec. IV-A — temperature stress (pass = CRC valid)
	//
	// | freq\temp | 40C | 50C | 60C | 70C | 80C | 90C | 100C |
	// |---|---|---|---|---|---|---|---|
	// | 100 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 140 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 180 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 200 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 240 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 280 MHz | pass | pass | pass | pass | pass | pass | pass |
	// | 310 MHz | pass | pass | pass | pass | pass | pass | FAIL |
	//
	// - 1 failing cell(s); paper reports exactly one: 310 MHz @ 100 °C
	// - stressed as 7 independent temperature columns, each on a freshly heated board
	//
	// 2 scenarios as 8 shards on 2 workers
}
