package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/paperdata"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnvWith(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// runScenario executes a registered scenario through the canonical
// sequential registry path at the reference seed.
func runScenario(t *testing.T, id string) *Report {
	t.Helper()
	s, ok := Lookup(id)
	if !ok {
		t.Fatalf("scenario %s not registered", id)
	}
	rep, err := runOne(s, Config{Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func cell(t *testing.T, rep *Report, row, col int) string {
	t.Helper()
	if row >= len(rep.Rows) || col >= len(rep.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", rep.ID, row, col)
	}
	return rep.Rows[row][col]
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTableIAgainstPaper(t *testing.T) {
	rep, err := TableI(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(paperdata.TableI) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i, paper := range paperdata.TableI {
		row := rep.Rows[i]
		if !paper.IRQ {
			if !strings.Contains(row[1], "N/A") {
				t.Errorf("%v MHz: latency %q, want N/A", paper.FreqMHz, row[1])
			}
			wantCRC := validity(paper.CRCValid)
			if row[3] != wantCRC {
				t.Errorf("%v MHz: CRC %q, want %q", paper.FreqMHz, row[3], wantCRC)
			}
			continue
		}
		lat := num(t, row[1])
		if math.Abs(lat-paper.LatencyUS)/paper.LatencyUS > 0.005 {
			t.Errorf("%v MHz: latency %v vs paper %v", paper.FreqMHz, lat, paper.LatencyUS)
		}
		tput := num(t, row[2])
		if math.Abs(tput-paper.ThroughputMBs)/paper.ThroughputMBs > 0.005 {
			t.Errorf("%v MHz: throughput %v vs paper %v", paper.FreqMHz, tput, paper.ThroughputMBs)
		}
	}
	if !strings.Contains(rep.Render(), "Table I") {
		t.Error("render missing title")
	}
}

func TestFig5ShapeAndSeries(t *testing.T) {
	rep := runScenario(t, "E2")
	if len(rep.Series) != 1 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	s := rep.Series[0]
	if len(s.Points) < 15 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Linear at 100–180, flat by 240–300.
	for _, p := range s.Points {
		if p.X <= 180 {
			if math.Abs(p.Y-4*p.X)/(4*p.X) > 0.01 {
				t.Errorf("%.0f MHz: %v not on 4f line", p.X, p.Y)
			}
		}
		if p.X >= 240 && (p.Y < 780 || p.Y > 800) {
			t.Errorf("%.0f MHz: %v not on plateau", p.X, p.Y)
		}
	}
	// Knee note mentions ≈200 MHz.
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "200 MHz") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes = %v", rep.Notes)
	}
	if !strings.Contains(s.CSV(), "frequency_mhz,throughput_mbs") {
		t.Error("CSV header missing")
	}
}

func TestTempStressSingleFailure(t *testing.T) {
	rep := runScenario(t, "E3")
	fails := 0
	var failRow, failCol int
	for r, row := range rep.Rows {
		for c, cellv := range row[1:] {
			if cellv == "FAIL" {
				fails++
				failRow, failCol = r, c
			}
		}
	}
	if fails != 1 {
		t.Fatalf("failing cells = %d, want exactly 1", fails)
	}
	if !strings.HasPrefix(rep.Rows[failRow][0], "310") {
		t.Errorf("failure at row %q, want 310 MHz", rep.Rows[failRow][0])
	}
	if rep.Header[failCol+1] != "100C" {
		t.Errorf("failure at column %q, want 100C", rep.Header[failCol+1])
	}
}

func TestFig6FamilyAgainstPaperShape(t *testing.T) {
	rep := runScenario(t, "E4")
	if len(rep.Series) != 4 {
		t.Fatalf("series = %d, want 4 temperatures", len(rep.Series))
	}
	// Row order = freqs ascending; columns: 40/60/80/100 °C. Power grows
	// along both axes.
	for i, row := range rep.Rows {
		for c := 1; c <= 4; c++ {
			v := num(t, row[c])
			if i > 0 {
				prev := num(t, rep.Rows[i-1][c])
				if v <= prev {
					t.Errorf("power not increasing in f at col %d", c)
				}
			}
			if c > 1 {
				left := num(t, row[c-1])
				if v <= left {
					t.Errorf("power not increasing in T at row %d", i)
				}
			}
		}
	}
	// 40 °C column must match Table II within the meter tolerance.
	for i, paper := range paperdata.TableII {
		v := num(t, rep.Rows[i][1])
		if math.Abs(v-paper.PDRWatts) > 0.06 {
			t.Errorf("%v MHz @40C: %v W vs paper %v", paper.FreqMHz, v, paper.PDRWatts)
		}
	}
}

func TestTableIIKneeAt200(t *testing.T) {
	rep, err := TableII(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	best, bestF := 0.0, 0.0
	for _, row := range rep.Rows {
		ppw := num(t, row[3])
		if ppw > best {
			best, bestF = ppw, num(t, row[0])
		}
	}
	if bestF != paperdata.KneeMHz {
		t.Errorf("knee at %v MHz, want %v", bestF, paperdata.KneeMHz)
	}
	if math.Abs(best-paperdata.BestPpW)/paperdata.BestPpW > 0.05 {
		t.Errorf("best PpW %v vs paper %v", best, paperdata.BestPpW)
	}
}

func TestTableIIIAgainstPaper(t *testing.T) {
	rep, err := TableIII(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i, paper := range paperdata.TableIII {
		row := rep.Rows[i]
		if row[0] != paper.Design || row[1] != paper.Platform {
			t.Errorf("row %d = %v", i, row)
		}
		tput := num(t, row[3])
		if math.Abs(tput-paper.ThroughputMBs)/paper.ThroughputMBs > 0.01 {
			t.Errorf("%s: %v MB/s vs paper %v", paper.Design, tput, paper.ThroughputMBs)
		}
	}
}

func TestSecVIDoublesThroughput(t *testing.T) {
	rep, err := SecVI(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	raw := num(t, cell(t, rep, 0, 3))
	comp := num(t, cell(t, rep, 1, 3))
	if math.Abs(raw-paperdata.SecVITheoreticalMBs)/paperdata.SecVITheoreticalMBs > 0.02 {
		t.Errorf("raw rate %v vs theoretical %v", raw, paperdata.SecVITheoreticalMBs)
	}
	if raw < 790*1.5 {
		t.Errorf("Sec. VI should beat the DMA path decisively: %v", raw)
	}
	if comp <= raw {
		t.Errorf("decompressor should raise the effective rate: %v vs %v", comp, raw)
	}
	if cell(t, rep, 0, 4) != "valid" || cell(t, rep, 1, 4) != "valid" {
		t.Error("Sec. VI transfers must verify")
	}
}

func TestLatencyClaims(t *testing.T) {
	rep, err := LatencyClaims(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	small := num(t, cell(t, rep, 0, 2))
	big := num(t, cell(t, rep, 1, 2))
	if math.Abs(small-676.3)/676.3 > 0.01 {
		t.Errorf("529 KB prediction %v, want ≈676", small)
	}
	if big < 1500 {
		t.Errorf("1.2 MB prediction %v, want ≈1550+", big)
	}
}

func TestAblationCRCBounded(t *testing.T) {
	rep, err := AblationCRC(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	base := num(t, cell(t, rep, 0, 1))
	withScan := num(t, cell(t, rep, 1, 1))
	// Interference bounded by one read-back chunk (32 frames ≈ 16 µs at
	// 200 MHz) — not a whole scan.
	if withScan-base > 25 {
		t.Errorf("scan interference %v µs too large", withScan-base)
	}
	if withScan < base-1 {
		t.Errorf("with-scan latency %v below baseline %v", withScan, base)
	}
}

func TestAblationKneeDecomposition(t *testing.T) {
	rep, err := AblationKnee(context.Background(), newBoards(t, Config{Seed: 42}), 0)
	if err != nil {
		t.Fatal(err)
	}
	basec := num(t, cell(t, rep, 0, 1))
	noRefresh := num(t, cell(t, rep, 1, 1))
	fastPort := num(t, cell(t, rep, 2, 1))
	if noRefresh <= basec {
		t.Errorf("removing refresh should help: %v vs %v", noRefresh, basec)
	}
	// With a 2x port, 280 MHz becomes ICAP-bound: ≈4·280·(1−overhead).
	if fastPort < 1050 {
		t.Errorf("2x port should unlock ≈1110 MB/s, got %v", fastPort)
	}
}

func TestAblationRobustGuard(t *testing.T) {
	rep, err := AblationRobustGuard(context.Background(), newEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	clean := num(t, cell(t, rep, 0, 2))
	episode := num(t, cell(t, rep, 1, 2))
	if episode <= clean {
		t.Error("recovery episode must cost more than a clean load")
	}
	if cell(t, rep, 1, 3) != "true" {
		t.Error("guard must recover")
	}
}

func TestRenderAligned(t *testing.T) {
	rep := &Report{
		ID:     "X",
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := rep.Render()
	if !strings.Contains(out, "note: hello") {
		t.Error("notes missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Error("too few lines")
	}
}
