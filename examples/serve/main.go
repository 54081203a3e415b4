// serve: the Fig.-1 framework promoted to a reconfiguration service — the
// paper's motivating deployment, actually serving traffic. An open-loop
// Poisson stream of accelerator requests hits the four RPs; resident ASPs
// compute concurrently while the single over-clocked ICAP swaps the rest.
// The run shows the two levers the service layer adds on top of the
// over-clocked controller:
//
//  1. the DRAM bitstream cache: without it every swap re-stages ~529 KB
//     from SD at 20 MB/s and the board saturates at tens of requests per
//     second; with it the knee moves an order of magnitude out;
//  2. the dispatch policy: when the cache cannot hold the working set,
//     residency-affine dispatch batches resident work and cuts the tail.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/pdr"
)

var asps = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func newSystem() *pdr.System {
	sys, err := pdr.NewSystem(pdr.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.SetFrequencyMHz(200); err != nil {
		log.Fatal(err)
	}
	return sys
}

func serve(rate float64, opts pdr.ServeOptions) pdr.ServiceStats {
	sys := newSystem()
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

func main() {
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
}
