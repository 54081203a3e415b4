package pdr_test

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/srampdr"
	"repro/pdr"
)

func newSys(t *testing.T) *pdr.System {
	t.Helper()
	sys, err := pdr.NewSystem(pdr.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSys(t)
	if got, err := sys.SetFrequencyMHz(200); err != nil || math.Abs(got-200) > 1 {
		t.Fatalf("SetFrequencyMHz: %v %v", got, err)
	}
	res, err := sys.LoadASP("RP1", "fir128")
	if err != nil {
		t.Fatal(err)
	}
	if !res.IRQReceived || !res.CRCValid {
		t.Fatalf("load not clean: %+v", res)
	}
	if math.Abs(res.ThroughputMBs-781.84)/781.84 > 0.01 {
		t.Errorf("throughput = %v, want ≈782", res.ThroughputMBs)
	}
}

func TestLoadASPUnknownNames(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.LoadASP("RP9", "fir128"); err == nil {
		t.Error("unknown RP must fail")
	}
	if _, err := sys.LoadASP("RP1", "ghost"); err == nil {
		t.Error("unknown ASP must fail")
	}
}

// TestMeasurementUnknownNames covers the BuildBitstream error path of every
// measurement entry point: each must reject unknown RP and ASP names rather
// than measure garbage.
func TestMeasurementUnknownNames(t *testing.T) {
	sys := newSys(t)
	freqs := []float64{100}
	temps := []float64{40}
	if _, err := sys.Sweep("RP9", "fir128", freqs); err == nil {
		t.Error("Sweep with unknown RP must fail")
	}
	if _, err := sys.Sweep("RP1", "ghost", freqs); err == nil {
		t.Error("Sweep with unknown ASP must fail")
	}
	if _, err := sys.StressMatrix("RP9", "fir128", freqs, temps); err == nil {
		t.Error("StressMatrix with unknown RP must fail")
	}
	if _, err := sys.PowerGrid("RP1", "ghost", freqs, temps); err == nil {
		t.Error("PowerGrid with unknown ASP must fail")
	}
	if _, err := sys.Optimize("RP9", "fir128", freqs, 100, 0.1); err == nil {
		t.Error("Optimize with unknown RP must fail")
	}
	if _, err := sys.RobustLoad("RP1", "ghost"); err == nil {
		t.Error("RobustLoad with unknown ASP must fail")
	}
}

// TestOutOfRangeFrequency exercises the MMCM feasibility check: targets the
// Clock Wizard cannot synthesise must be rejected, leaving the previous
// frequency programmed.
func TestOutOfRangeFrequency(t *testing.T) {
	sys := newSys(t)
	before, err := sys.SetFrequencyMHz(200)
	if err != nil {
		t.Fatal(err)
	}
	// 4 MHz is below the MMCM floor (VCO 600 MHz / max outdiv 128 ≈ 4.7);
	// 20 GHz is above the VCO ceiling.
	for _, f := range []float64{0, -100, 4, 20000} {
		if _, err := sys.SetFrequencyMHz(f); err == nil {
			t.Errorf("SetFrequencyMHz(%v) accepted", f)
		}
	}
	res, err := sys.LoadASP("RP1", "fir128")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FreqMHz-before) > 1 {
		t.Errorf("frequency after rejected retune = %v, want %v", res.FreqMHz, before)
	}
}

// TestSRAMPipelineDoubleInit: a system owns at most one Sec.-VI pipeline —
// a second init would register a duplicate DDR master on the same port.
func TestSRAMPipelineDoubleInit(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.SRAMPipeline(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SRAMPipeline(); err == nil {
		t.Error("second SRAMPipeline init must fail")
	}
}

func TestBitstreamCacheReuse(t *testing.T) {
	sys := newSys(t)
	a, err := sys.BuildBitstream("RP1", "sha3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.BuildBitstream("RP1", "sha3")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss on identical request")
	}
}

func TestSweepMatchesDirectLoad(t *testing.T) {
	sys := newSys(t)
	pts, err := sys.Sweep("RP1", "fir128", []float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if math.Abs(pts[0].Result.ThroughputMBs-399)/399 > 0.01 {
		t.Errorf("100 MHz point = %v", pts[0].Result.ThroughputMBs)
	}
}

func TestRobustLoadAtHangFrequency(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.SetFrequencyMHz(310); err != nil {
		t.Fatal(err)
	}
	rec, err := sys.RobustLoad("RP2", "aes-gcm")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered {
		t.Error("robust load must recover")
	}
}

func TestSensorsAndPower(t *testing.T) {
	sys := newSys(t)
	if temp := sys.DieTempC(); temp < 25 || temp > 60 {
		t.Errorf("die temp = %v", temp)
	}
	if p := sys.BoardPowerW(); p < 2.2 || p > 5 {
		t.Errorf("board power = %v", p)
	}
	if p := sys.PDRPowerW(); p < 0.8 || p > 2.5 {
		t.Errorf("P_PDR = %v", p)
	}
}

func TestHeatToAndOff(t *testing.T) {
	sys := newSys(t)
	if err := sys.HeatTo(80); err != nil {
		t.Fatal(err)
	}
	if got := sys.DieTempC(); math.Abs(got-80) > 1 {
		t.Errorf("die = %v, want ≈80", got)
	}
	sys.HeatOff()
}

func TestOptimizeEndToEnd(t *testing.T) {
	sys := newSys(t)
	rec, err := sys.Optimize("RP1", "fir128", []float64{100, 140, 180, 200, 240, 280}, 100, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FreqMHz != 200 {
		t.Errorf("recommendation = %v MHz, want 200", rec.FreqMHz)
	}
}

func TestFrameworkAndTrace(t *testing.T) {
	sys := newSys(t)
	if _, err := sys.SetFrequencyMHz(200); err != nil {
		t.Fatal(err)
	}
	fw := sys.Framework()
	tr, err := sys.OpenTrace(pdr.ArrivalSpec{RatePerSec: 1e6 / 500}, 3, 10, []string{"fir128", "sha3"})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fw.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 10 {
		t.Errorf("requests = %d", stats.Requests)
	}
	if stats.Failures != 0 {
		t.Errorf("failures = %d", stats.Failures)
	}
}

func TestSRAMPipelineEndToEnd(t *testing.T) {
	sys := newSys(t)
	pipe, err := sys.SRAMPipeline()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := sys.BuildBitstream("RP3", "fft1k")
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Register(bs, true); err != nil {
		t.Fatal(err)
	}
	loaded := false
	if err := pipe.Preload("fft1k", func(srampdr.Preloaded) { loaded = true }); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(5 * sim.Millisecond)
	if !loaded {
		t.Fatal("preload incomplete")
	}
	var tput float64
	if err := pipe.Reconfigure(func(r srampdr.ReconfigResult) { tput = r.ThroughputMBs }); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(5 * sim.Millisecond)
	if tput < 1237 {
		t.Errorf("Sec.-VI throughput = %v, want >1237 (compressed)", tput)
	}
}

func TestRegionsExposed(t *testing.T) {
	sys := newSys(t)
	if len(sys.Regions()) != 4 {
		t.Errorf("regions = %d", len(sys.Regions()))
	}
	if len(sys.ASPs()) < 5 {
		t.Errorf("ASPs = %d", len(sys.ASPs()))
	}
}

func TestNewSystemWithPlatform(t *testing.T) {
	sys, err := pdr.NewSystem(pdr.WithSeed(7), pdr.WithPlatform("zybo-z7-10"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Platform().Profile.Name; got != "zybo-z7-10" {
		t.Errorf("profile = %q", got)
	}
	if got := len(sys.Regions()); got != 3 {
		t.Errorf("zybo RPs = %d, want 3", got)
	}
	if _, err := sys.SetFrequencyMHz(140); err != nil {
		t.Fatal(err)
	}
	res, err := sys.LoadASP("RP1", "fir128")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := sys.BuildBitstream("RP1", "fir128")
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Platform()
	rp, err := p.RP("RP1")
	if err != nil {
		t.Fatal(err)
	}
	intact, err := p.Memory.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IRQReceived || !res.CRCValid || !intact {
		t.Errorf("zybo 140 MHz load should succeed cleanly (memory intact=%v): %+v", intact, res)
	}
	if _, err := pdr.NewSystem(pdr.WithPlatform("martian-fpga")); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestPlatformsListing(t *testing.T) {
	infos := pdr.Platforms()
	if len(infos) < 5 {
		t.Fatalf("Platforms = %d entries", len(infos))
	}
	byName := map[string]pdr.PlatformInfo{}
	for _, p := range infos {
		byName[p.Name] = p
	}
	if p := byName["zedboard"]; p.Variant || p.Part != "xc7z020" {
		t.Errorf("zedboard info = %+v", p)
	}
	if p := byName["zedboard-hot"]; !p.Variant {
		t.Errorf("zedboard-hot should be a variant: %+v", p)
	}
}

func TestServeOpenLoop(t *testing.T) {
	sys, err := pdr.NewSystem(pdr.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SetFrequencyMHz(200); err != nil {
		t.Fatal(err)
	}
	asps := []string{"fir128", "sha3"}
	tr, err := sys.OpenTrace(pdr.ArrivalSpec{RatePerSec: 200, Tenants: []string{"a", "b"}}, 7, 24, asps)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Serve(tr, pdr.ServeOptions{Service: pdr.ServiceConfig{Policy: "affinity", Prewarm: asps}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered != 24 || stats.Completed+stats.Failures+stats.Shed != 24 {
		t.Errorf("service accounting broken: %+v", stats)
	}
	if stats.SojournUS.N() == 0 || stats.SojournUS.Percentile(99) <= 0 {
		t.Error("sojourn tail latency missing")
	}
	if len(stats.Tenants) != 2 {
		t.Errorf("tenants = %v", stats.TenantNames())
	}
	if _, err := sys.Serve(tr, pdr.ServeOptions{Service: pdr.ServiceConfig{Policy: "lifo"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := sys.Serve(tr, pdr.ServeOptions{Service: pdr.ServiceConfig{Repair: "relaod"}}); err == nil {
		t.Error("unknown repair mode accepted")
	}
}

func TestServeNoCacheAblationIsSlower(t *testing.T) {
	run := func(budget int64) pdr.ServiceStats {
		sys, err := pdr.NewSystem(pdr.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.SetFrequencyMHz(200); err != nil {
			t.Fatal(err)
		}
		asps := []string{"fir128", "sha3", "aes-gcm"}
		tr, err := sys.OpenTrace(pdr.ArrivalSpec{RatePerSec: 100}, 11, 24, asps)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sys.Serve(tr, pdr.ServeOptions{Service: pdr.ServiceConfig{CacheBudgetBytes: budget, Prewarm: asps}})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	warm := run(0)     // profile budget
	ablated := run(-1) // cache disabled
	if ablated.SojournUS.Percentile(99) <= warm.SojournUS.Percentile(99) {
		t.Errorf("no-cache p99 %.0f µs should exceed cached %.0f µs",
			ablated.SojournUS.Percentile(99), warm.SojournUS.Percentile(99))
	}
	if ablated.StageTime <= warm.StageTime {
		t.Errorf("ablation should stage more: %v vs %v", ablated.StageTime, warm.StageTime)
	}
}

func TestPoliciesListing(t *testing.T) {
	got := pdr.Policies()
	if len(got) != 3 || got[0] != "fcfs" {
		t.Errorf("Policies() = %v", got)
	}
}
