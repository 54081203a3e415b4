package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/paperdata"
	"repro/internal/plan"
	"repro/pdr"
)

// tableITolPct is the tolerance the repository's tests hold simulated
// Table I throughput to.
const tableITolPct = 0.5

// completingRows are Table I's rows whose loads complete (100–280 MHz).
func completingRows() []paperdata.TableIRow {
	var rows []paperdata.TableIRow
	for _, r := range paperdata.TableI {
		if r.IRQ && r.CRCValid {
			rows = append(rows, r)
		}
	}
	return rows
}

// errPct is the relative error of a simulated throughput against the
// published one, in percent.
func errPct(simMBs, paperMBs float64) float64 {
	return math.Abs(simMBs-paperMBs) / paperMBs * 100
}

// checkLoad checks one load against its Table I row: interrupt received,
// CRC valid, throughput within the tests' tolerance.
func checkLoad(res pdr.Result, row paperdata.TableIRow) error {
	switch {
	case !res.IRQReceived:
		return fmt.Errorf("%s @%v MHz: no interrupt", res.RP, row.FreqMHz)
	case !res.CRCValid:
		return fmt.Errorf("%s @%v MHz: CRC not valid", res.RP, row.FreqMHz)
	case errPct(res.ThroughputMBs, row.ThroughputMBs) > tableITolPct:
		return fmt.Errorf("%s @%v MHz: %.2f MB/s, Table I %.2f MB/s", res.RP, row.FreqMHz, res.ThroughputMBs, row.ThroughputMBs)
	}
	return nil
}

// tableIProbe boots one ZedBoard and loads one image at every completing
// Table I frequency. It returns the largest relative throughput error in
// percent — the fleet and plan workloads' paper_err_pct, checked in their
// set-up so no run measures a simulator that has drifted from the paper.
func tableIProbe(seed uint64) (float64, error) {
	sys, err := pdr.NewSystem(pdr.WithSeed(seed))
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, row := range completingRows() {
		if _, err := sys.SetFrequencyMHz(row.FreqMHz); err != nil {
			return 0, err
		}
		res, err := sys.LoadASP("RP1", "fir128")
		if err != nil {
			return 0, err
		}
		if err := checkLoad(res, row); err != nil {
			return 0, fmt.Errorf("table I probe: %w", err)
		}
		worst = math.Max(worst, errPct(res.ThroughputMBs, row.ThroughputMBs))
	}
	return worst, nil
}

// plannedWatts is the watts the planner's surrogate assigns to a fleet
// configuration serving the given stream — plan_watts on the workloads
// that do not plan.
func plannedWatts(boards []string, freqMHz float64, router string, cacheImages int, w plan.Workload) (float64, error) {
	specs := make([]cluster.BoardSpec, len(boards))
	for i, b := range boards {
		specs[i] = cluster.BoardSpec{Platform: b}
	}
	c := plan.Candidate{Boards: specs, FreqMHz: freqMHz, Router: router, CacheImages: cacheImages}
	pred, err := plan.NewSurrogate().Score(c, w, planSLO)
	if err != nil {
		return 0, err
	}
	return pred.Watts, nil
}
