// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation, one Scenario per artefact (the experiment
// index of DESIGN.md §4). Each scenario returns a Report holding the
// formatted rows the paper prints plus machine-readable series for the
// figures; the pdrbench command, the pdr campaign API and the generated
// EXPERIMENTS.md all consume these scenarios so the numbers in all three
// always agree.
//
// Scenarios are registered at init in a package registry (see registry.go)
// and discovered by ID ("E1"…"E17", "A1"…"A5") or legacy alias ("tableI"…).
// Every scenario declares a fixed shard plan — independent work units that
// each boot their own fresh boards — and Execute runs the shards on any
// number of workers and merges by index to byte-identical output.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

// Report is one regenerated artefact.
type Report struct {
	// ID is the experiment id from DESIGN.md (e.g. "E1").
	ID string `json:"id"`
	// Title names the paper artefact (e.g. "Table I").
	Title string `json:"title"`
	// Header and Rows are the formatted table.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Series carries figure data (CSV-renderable).
	Series []sim.Series `json:"series,omitempty"`
	// Notes records paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string `json:"notes,omitempty"`

	// SimEvents counts the simulation events fired producing this report
	// (every board the shards booted, fleet and planner boards included);
	// WallMS is the wall-clock cost of computing it. Both feed the
	// pdrbench summary table only — excluded from the JSON encoding so
	// report files stay byte-identical across machines, worker counts,
	// and tracing on/off.
	SimEvents uint64  `json:"-"`
	WallMS    float64 `json:"-"`
}

// Render formats the report as an aligned text table. Rows may be ragged —
// wider or narrower than the header — and still align: column widths cover
// the widest row, and missing cells render empty.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the report with a stable field order and indentation, so
// byte-comparing two encodings is a valid equality check.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// EncodeJSON renders a suite of reports as one stable JSON document.
func EncodeJSON(reports []*Report) ([]byte, error) {
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func mdEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

// Markdown renders the report as a GitHub-flavoured markdown section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", mdEscape(r.ID), mdEscape(r.Title))
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	cell := func(cells []string, i int) string {
		if i < len(cells) {
			return mdEscape(cells[i])
		}
		return ""
	}
	for i := 0; i < cols; i++ {
		fmt.Fprintf(&b, "| %s ", cell(r.Header, i))
	}
	b.WriteString("|\n")
	for i := 0; i < cols; i++ {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for _, row := range r.Rows {
		for i := 0; i < cols; i++ {
			fmt.Fprintf(&b, "| %s ", cell(row, i))
		}
		b.WriteString("|\n")
	}
	if len(r.Series) > 0 {
		names := make([]string, len(r.Series))
		for i, s := range r.Series {
			names[i] = s.Name
		}
		fmt.Fprintf(&b, "\nFigure series (CSV via `pdrbench -csv`): %s.\n", strings.Join(names, ", "))
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// MarkdownSuite renders a full EXPERIMENTS.md: a generation banner, the
// experiment index, then one section per report. The output is a pure
// function of (reports, cfg) — the cfg must be the one the reports were
// generated with, so the shard column matches the run — which lets CI diff
// the committed file against a fresh `pdrbench -md` run.
func MarkdownSuite(reports []*Report, cfg Config) string {
	var b strings.Builder
	b.WriteString("<!-- Generated by `go run ./cmd/pdrbench -md`. Do not edit by hand: CI regenerates this file and fails on drift. -->\n\n")
	b.WriteString("# EXPERIMENTS — regenerated paper artefacts\n\n")
	fmt.Fprintf(&b, "Every table and figure of the paper's evaluation, regenerated from the\nsimulation at seed %d. Each experiment shard runs on a freshly booted\nsimulated ZedBoard, so any schedule of the shards — sequential or a\nparallel campaign — produces exactly this file.\n\n", cfg.Seed)
	b.WriteString("| ID | Artefact | Shards |\n|----|----------|--------|\n")
	for _, r := range reports {
		shards := 1
		if s, ok := Lookup(r.ID); ok {
			shards = s.Shards(cfg)
		}
		fmt.Fprintf(&b, "| %s | %s | %d |\n", mdEscape(r.ID), mdEscape(r.Title), shards)
	}
	for _, r := range reports {
		b.WriteString("\n")
		b.WriteString(r.Markdown())
	}
	return b.String()
}

// Config parameterises a campaign run: the seed, the simulated board
// variant, the scenario parameters and the per-unit worker budget. The zero
// value is the paper's calibrated setup at seed 0.
type Config struct {
	// Seed drives every stochastic model.
	Seed uint64
	// Platform names the registered platform profile the campaign's boards
	// are built as ("" ⇒ the default zedboard). See internal/platform.
	Platform string
	// AmbientC is the room temperature (0 ⇒ the profile's boot ambient).
	AmbientC float64
	// SlowThermal selects the physical 2 s thermal time constant instead
	// of the fast test-friendly one.
	SlowThermal bool
	// NominalMHz overrides the initial over-clock frequency (0 ⇒ 100).
	NominalMHz float64
	// The scenario parameters: one field per row of the parameter table,
	// which documents each key, reader, rule and default (see Params).
	// A zero value keeps the scenario's default.
	Freqs           []float64 // "freqs"
	Temps           []float64 // "temps"
	Rates           []float64 // "E11.rates"
	FleetSizes      []int     // "E13.fleet"
	Router          string    // "E13.router"
	ChaosCrashes    int       // "E15.crashes"
	ChaosExcursions int       // "E15.excursions"
	ChaosGlitches   int       // "E15.glitches"
	TraceFile       string    // "E16.trace"
	Scaler          string    // "E16.scaler"
	PlanRate        float64   // "E17.rate"
	PlanP99MS       float64   // "E17.p99"
	PlanShed        float64   // "E17.shed"
	// Workers is the goroutine budget of one campaign unit (≤ 1 =
	// sequential): fleet scenarios fan their epoch advance out over it,
	// and the planner scenario (E17) splits it between its verifying
	// simulations and their fleets. Execute sets it from its own budget,
	// overwriting any caller value. Purely a wall-clock knob: output is
	// byte-identical at every setting, so it is not part of the
	// scientific configuration.
	Workers int
	// Obs, when non-nil, collects deterministic spans and sim-time metrics
	// from the fleet scenarios (see internal/obs): each shard registers
	// its fleet under "<scenario>/<shard>" so the export is ordered by
	// key, not by campaign schedule. Like Workers it is not part of the
	// scientific configuration — report output is byte-identical with or
	// without it.
	Obs *obs.Tracer
}

// obsFleet registers one shard's fleet with the campaign tracer (nil —
// and therefore free — when tracing is off). The "<id>/<shard>" key
// orders the export deterministically whatever schedule ran the shards;
// the label names the Perfetto process group.
func obsFleet(cfg Config, id string, shard int, label string) *obs.FleetTrace {
	return cfg.Obs.Fleet(fmt.Sprintf("%s/%02d", id, shard), label)
}

// Env is a fresh measurement setup: platform, controller and the standard
// 529 KB partial bitstream.
type Env struct {
	Platform   *zynq.Platform
	Controller *core.Controller
	Bitstream  *bitstream.Bitstream
}

// ProfileFor resolves the configuration's platform profile.
func ProfileFor(cfg Config) (*platform.Profile, error) {
	prof, ok := platform.Lookup(cfg.Platform)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown platform %q (want %s)", cfg.Platform, platform.NameList())
	}
	return prof, nil
}

// NewEnvWith builds a booted platform of the configuration's board with
// the standard test bitstream (the "fir128" ASP on RP1 — any ASP yields
// the same calibrated size).
func NewEnvWith(cfg Config) (*Env, error) {
	prof, err := ProfileFor(cfg)
	if err != nil {
		return nil, err
	}
	p, err := zynq.NewPlatform(zynq.Options{
		Seed:        cfg.Seed,
		Profile:     prof,
		AmbientC:    cfg.AmbientC,
		NominalMHz:  cfg.NominalMHz,
		FastThermal: !cfg.SlowThermal,
	})
	if err != nil {
		return nil, err
	}
	p.ConfigureStatic()
	c := core.New(p)
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		return nil, err
	}
	bs, err := asp.Bitstream(p.Device, p.RPs[0])
	if err != nil {
		return nil, err
	}
	return &Env{Platform: p, Controller: c, Bitstream: bs}, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func mhz(v float64) string { return fmt.Sprintf("%.0f", v) }

// validity renders the paper's CRC column.
func validity(ok bool) string {
	if ok {
		return "valid"
	}
	return "not valid"
}

// buildFor builds a standard-size bitstream for an arbitrary region (used
// by SecVI and the A2 knee ablation).
func buildFor(p *zynq.Platform, rp fabric.Region, name string, seed uint64) (*bitstream.Bitstream, error) {
	asp := workload.ASP{Name: name, FillFraction: 0.55, Seed: seed}
	return bitstream.Build(p.Device, rp, name, asp.Frames(p.Device, rp))
}
