package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/power"
)

func TestStressMatrixReproducesSecIVA(t *testing.T) {
	// Sec. IV-A: frequencies up to 310 MHz, die 40–100 °C in 10 °C steps.
	// "All the tests succeeded except the test done at 310 MHz and 100 °C."
	p := newPlatform(t)
	c := New(p)
	cal := &Calibrator{C: c, Bitstream: standardBitstream(t, p, 11)}
	freqs := []float64{100, 200, 280, 310}
	temps := []float64{40, 60, 80, 90, 100}
	cells, err := cal.StressMatrix(context.Background(), freqs, temps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(freqs)*len(temps) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, cell := range cells {
		wantPass := !(cell.FreqMHz == 310 && cell.TempC == 100)
		if cell.Passed != wantPass {
			t.Errorf("%v MHz @ %v°C: passed=%v, want %v",
				cell.FreqMHz, cell.TempC, cell.Passed, wantPass)
		}
	}
}

func TestPowerProfilerReproducesTableII(t *testing.T) {
	// Table II: P_PDR and PpW at 40 °C; the maximum efficiency must land at
	// the 200 MHz knee with ≈599 MB/J.
	p := newPlatform(t)
	c := New(p)
	pp := &PowerProfiler{
		C:         c,
		Meter:     power.NewMeter(p.Kernel, p.Power, 100*1000*1000), // 100 µs in ps
		Bitstream: standardBitstream(t, p, 12),
	}
	freqs := []float64{100, 140, 180, 200, 240, 280}
	points, err := pp.Grid(context.Background(), freqs, []float64{40})
	if err != nil {
		t.Fatal(err)
	}
	paper := map[float64]struct{ w, ppw float64 }{
		100: {1.14, 351}, 140: {1.23, 453}, 180: {1.28, 560},
		200: {1.30, 599}, 240: {1.36, 577}, 280: {1.44, 550},
	}
	bestF, bestPpW := 0.0, 0.0
	for _, pt := range points {
		want := paper[pt.FreqMHz]
		if math.Abs(pt.PDRWatts-want.w) > 0.06 {
			t.Errorf("%v MHz: P_PDR %.3f W, paper %.2f", pt.FreqMHz, pt.PDRWatts, want.w)
		}
		if math.Abs(pt.PpW-want.ppw)/want.ppw > 0.05 {
			t.Errorf("%v MHz: PpW %.0f MB/J, paper %.0f", pt.FreqMHz, pt.PpW, want.ppw)
		}
		if pt.PpW > bestPpW {
			bestF, bestPpW = pt.FreqMHz, pt.PpW
		}
	}
	if bestF != 200 {
		t.Errorf("best PpW at %v MHz, want 200 (the knee)", bestF)
	}
}

func TestFig6PowerFamilyShape(t *testing.T) {
	// Fig. 6's two observations: dynamic slope constant across temperature;
	// static offset super-linear in temperature.
	p := newPlatform(t)
	c := New(p)
	pp := &PowerProfiler{
		C:         c,
		Meter:     power.NewMeter(p.Kernel, p.Power, 100*1000*1000),
		Bitstream: standardBitstream(t, p, 13),
	}
	freqs := []float64{100, 280}
	temps := []float64{40, 60, 80, 100}
	points, err := pp.Grid(context.Background(), freqs, temps)
	if err != nil {
		t.Fatal(err)
	}
	byTemp := map[float64]map[float64]float64{}
	for _, pt := range points {
		if byTemp[pt.TempC] == nil {
			byTemp[pt.TempC] = map[float64]float64{}
		}
		byTemp[pt.TempC][pt.FreqMHz] = pt.PDRWatts
	}
	slope40 := (byTemp[40][280] - byTemp[40][100]) / 180
	var offsets []float64
	for _, temp := range temps {
		slope := (byTemp[temp][280] - byTemp[temp][100]) / 180
		if math.Abs(slope-slope40) > 0.25e-3 {
			t.Errorf("slope at %v°C = %v W/MHz, want ≈%v (T-independent)", temp, slope, slope40)
		}
		offsets = append(offsets, byTemp[temp][100])
	}
	// Super-linear static growth: consecutive 20 °C increments grow.
	d1 := offsets[1] - offsets[0]
	d2 := offsets[2] - offsets[1]
	d3 := offsets[3] - offsets[2]
	if !(d3 > d2 && d2 > d1) {
		t.Errorf("static power increments not super-linear: %v %v %v", d1, d2, d3)
	}
}

func TestOptimizerPicksRobustKnee(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	pp := &PowerProfiler{
		C:         c,
		Meter:     power.NewMeter(p.Kernel, p.Power, 100*1000*1000),
		Bitstream: standardBitstream(t, p, 14),
	}
	opt := &Optimizer{Profiler: pp, WorstTempC: 100, Margin: 0.10}
	rec, err := opt.Choose([]float64{100, 140, 180, 200, 240, 280, 310})
	if err != nil {
		t.Fatal(err)
	}
	if rec.FreqMHz != 200 {
		t.Errorf("recommended %v MHz, want 200", rec.FreqMHz)
	}
	if rec.GuardBandMHz >= 280 {
		t.Errorf("guard band %v MHz should exclude 280+", rec.GuardBandMHz)
	}
	if math.Abs(rec.PpW-599) > 30 {
		t.Errorf("PpW = %v, want ≈599", rec.PpW)
	}
	// Contract: the recommendation stays operational at worst temperature.
	if _, err := c.SetFrequencyMHz(rec.FreqMHz); err != nil {
		t.Fatal(err)
	}
	p.Die.SetTempC(100)
	res, err := c.Load("RP1", pp.Bitstream)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IRQReceived || !res.CRCValid {
		t.Error("recommended point failed at 100 °C")
	}
}

func TestOptimizerRejectsEmptyEligibleSet(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	pp := &PowerProfiler{C: c, Meter: power.NewMeter(p.Kernel, p.Power, 100*1000*1000), Bitstream: standardBitstream(t, p, 15)}
	opt := &Optimizer{Profiler: pp, WorstTempC: 100, Margin: 0.10}
	if _, err := opt.Choose([]float64{300, 310, 320}); err == nil {
		t.Error("all-over-guard-band set must fail")
	}
}
