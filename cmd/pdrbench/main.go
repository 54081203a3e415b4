// Command pdrbench regenerates the tables and figures of the paper's
// evaluation from the simulation via the Campaign API. Scenarios come from
// the experiment registry — adding a registered Scenario needs zero changes
// here.
//
// Usage:
//
//	pdrbench                      # run the full E1–A5 suite sequentially
//	pdrbench -run E1,E3           # a subset, by ID or legacy alias
//	pdrbench -platform zc706      # run on another registered platform
//	pdrbench -parallel 4          # a budget of 4 goroutines: shards first,
//	                              # then each shard's fleet epochs or planner
//	                              # simulations (output is byte-identical
//	                              # to -parallel 1)
//	pdrbench -parallel 0          # one goroutine per CPU
//	pdrbench -run E13 -set E13.fleet=1,2,4 -set E13.router=affinity
//	                              # set scenario parameters (repeatable;
//	                              # -list prints every key and its rule)
//	pdrbench -run E16 -trace-out day.json   # persist the E16 arrival stream
//	pdrbench -run E16 -set E16.trace=day.json  # replay a recorded stream
//	pdrbench -run E13 -trace-events e13.json  # export request spans and
//	                              # control-plane events as Chrome trace-
//	                              # event JSON (Perfetto-loadable; bytes
//	                              # are identical at any -parallel budget)
//	pdrbench -run E13 -metrics-out m.json     # sim-time metric series
//	                              # (queue depths, watts, shed; .csv for CSV)
//	pdrbench -run E11 -cpuprofile cpu.out     # wall-clock CPU profile,
//	                              # labelled by scenario and shard
//	pdrbench -json                # machine-readable reports
//	pdrbench -md > EXPERIMENTS.md # regenerate the committed artefact file
//	pdrbench -csv out/            # also write figure series as CSV files
//	pdrbench -list                # show the scenarios, parameters, platforms
//	pdrbench -list -json          # the registry as JSON (golden-tested)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/pdr"
)

type options struct {
	run         string
	platform    string
	parallel    int
	seed        uint64
	jsonOut     bool
	mdOut       bool
	list        bool
	csvDir      string
	sets        []string // -set key=value pairs, in command-line order
	traceOut    string
	traceEvents string
	metricsOut  string
	cpuProfile  string
}

func main() {
	var opts options
	flag.StringVar(&opts.run, "run", "all", "comma-separated scenario IDs or aliases (see -list)")
	flag.StringVar(&opts.platform, "platform", "", "platform profile to run on (default zedboard; see -list)")
	flag.IntVar(&opts.parallel, "parallel", 1, "goroutine budget: campaign shards, then each shard's fleet epochs or planner simulations (0 = one per CPU; output is byte-identical)")
	flag.Uint64Var(&opts.seed, "seed", 42, "simulation seed")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit reports as JSON (with -list: the scenario registry)")
	flag.BoolVar(&opts.mdOut, "md", false, "emit the EXPERIMENTS.md document")
	flag.BoolVar(&opts.list, "list", false, "list registered scenarios, parameters and platforms, and exit")
	flag.StringVar(&opts.csvDir, "csv", "", "directory to write figure CSV series into")
	flag.Func("set", "set a scenario parameter as key=value (repeatable; see -list)", func(kv string) error {
		opts.sets = append(opts.sets, kv)
		return nil
	})
	flag.StringVar(&opts.traceOut, "trace-out", "", "write the E16 arrival stream (the E16.trace replay, if set) to a versioned trace file")
	flag.StringVar(&opts.traceEvents, "trace-events", "", "write the run's spans and events as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	flag.StringVar(&opts.metricsOut, "metrics-out", "", "write the run's sim-time metric series (.csv = CSV, otherwise canonical JSON)")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file, labelled by scenario and shard (see go tool pprof -tagfocus)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := realMain(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, w io.Writer, opts options) (err error) {
	if opts.list {
		if opts.jsonOut {
			return listScenariosJSON(w)
		}
		return listScenarios(w)
	}
	copts := []pdr.CampaignOption{
		pdr.WithCampaignSeed(opts.seed),
		pdr.WithWorkers(opts.parallel),
	}
	if opts.platform != "" {
		copts = append(copts, pdr.WithBoardVariant(pdr.BoardVariant(opts.platform)))
	}
	// cfg checks every -set before anything runs or is written, and gives
	// -trace-out the E16.trace replay path.
	cfg := experiments.Config{Seed: opts.seed, Platform: opts.platform}
	for _, kv := range opts.sets {
		key, value, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("invalid -set %q (want key=value)", kv)
		}
		if err := cfg.Set(key, value); err != nil {
			return err
		}
		copts = append(copts, pdr.WithParam(key, value))
	}
	if opts.traceOut != "" {
		if err := writeTraceOut(cfg, opts.traceOut); err != nil {
			return err
		}
		// The notice goes to stderr so -json/-md stdout stays parseable.
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.traceOut)
	}
	var tracer *pdr.Tracer
	if opts.traceEvents != "" || opts.metricsOut != "" {
		tracer = pdr.NewTracer()
		copts = append(copts, pdr.WithTracer(tracer))
	}
	if opts.cpuProfile != "" {
		// A wall-clock profile of the host's work; the executor labels
		// every shard with its scenario and shard index. The simulated
		// clock has its own deterministic exports above.
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("-cpuprofile: %w", cerr)
			}
		}()
	}
	if opts.run != "" && opts.run != "all" {
		var ids []string
		for _, id := range strings.Split(opts.run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		copts = append(copts, pdr.WithScenarios(ids...))
	}
	res, err := pdr.NewCampaign(copts...).Run(ctx)
	if err != nil {
		return err
	}

	switch {
	case opts.mdOut:
		if _, err := io.WriteString(w, res.Markdown()); err != nil {
			return err
		}
	case opts.jsonOut:
		out, err := res.JSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
	default:
		if _, err := io.WriteString(w, res.Render()); err != nil {
			return err
		}
	}

	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			return err
		}
		for _, rep := range res.Reports {
			for _, s := range rep.Series {
				path := filepath.Join(opts.csvDir, s.Name+".csv")
				if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
					return err
				}
				// Notices go to stderr so -json/-md stdout stays parseable.
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	if opts.traceEvents != "" {
		if err := os.WriteFile(opts.traceEvents, tracer.Chrome(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.traceEvents)
	}
	if opts.metricsOut != "" {
		data := tracer.MetricsCSV()
		if !strings.HasSuffix(opts.metricsOut, ".csv") {
			var err error
			if data, err = tracer.MetricsJSON(); err != nil {
				return err
			}
		}
		if err := os.WriteFile(opts.metricsOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.metricsOut)
	}
	// The run summary — wall clock and simulation volume per scenario, and
	// the campaign pool's utilization — goes to stderr: it is profiling
	// telemetry, deliberately kept out of the deterministic stdout that
	// -json/-md consumers and the CI byte-diffs read.
	writeSummary(os.Stderr, res)
	return nil
}

// writeSummary renders the per-scenario cost table and the worker pool's
// wall-clock utilization. Sim events are deterministic (a pure function of
// the configuration); wall-clock columns are measurements and vary run to
// run.
func writeSummary(w io.Writer, res *pdr.CampaignResult) {
	fmt.Fprintf(w, "\n%-5s %14s %12s\n", "ID", "sim events", "wall [ms]")
	var events uint64
	var wall float64
	for _, rep := range res.Reports {
		fmt.Fprintf(w, "%-5s %14d %12.1f\n", rep.ID, rep.SimEvents, rep.WallMS)
		events += rep.SimEvents
		wall += rep.WallMS
	}
	fmt.Fprintf(w, "%-5s %14d %12.1f  (%d units on %d workers, %.1f ms elapsed)\n",
		"total", events, wall, res.Units, res.Workers,
		float64(res.Elapsed)/float64(time.Millisecond))
	for i, wc := range res.Pool {
		fmt.Fprintf(w, "worker %d: %d units, %.1f ms busy\n",
			i, wc.Tasks, float64(wc.Busy)/float64(time.Millisecond))
	}
}

// writeTraceOut persists the E16 arrival stream as a versioned trace file:
// the replay E16.trace names (re-exported after the import round trip), or
// the stream the campaign seed and platform generate.
func writeTraceOut(cfg experiments.Config, path string) error {
	tr, err := experiments.DiurnalTrace(cfg)
	if err != nil {
		return err
	}
	out, err := pdr.ExportTrace(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// scenarioInfo and platformInfo are the machine-readable registry rows
// `-list -json` emits; field order is stable so the output can be golden-
// tested and diffed.
type scenarioInfo struct {
	ID        string   `json:"id"`
	Aliases   []string `json:"aliases,omitempty"`
	Shards    int      `json:"shards"`
	Platforms []string `json:"platforms,omitempty"`
	Title     string   `json:"title"`
}

type platformInfo struct {
	Name    string `json:"name"`
	Board   string `json:"board"`
	Part    string `json:"part"`
	Variant bool   `json:"variant,omitempty"`
	Summary string `json:"summary"`
}

type listing struct {
	Scenarios []scenarioInfo `json:"scenarios"`
	Platforms []platformInfo `json:"platforms"`
}

// listScenariosJSON emits the registry as one stable JSON document. Shard
// counts and platform spans reflect the default configuration, exactly as
// the table listing does.
func listScenariosJSON(w io.Writer) error {
	cfg := experiments.Config{}
	var out listing
	for _, s := range pdr.Scenarios() {
		info := scenarioInfo{
			ID:      s.ID,
			Aliases: s.Aliases,
			Shards:  s.Shards(cfg),
			Title:   s.Title,
		}
		if s.Platforms != nil {
			info.Platforms = s.Platforms(cfg)
		}
		out.Scenarios = append(out.Scenarios, info)
	}
	for _, p := range pdr.Platforms() {
		out.Platforms = append(out.Platforms, platformInfo{
			Name:    p.Name,
			Board:   p.Board,
			Part:    p.Part,
			Variant: p.Variant,
			Summary: p.Summary,
		})
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

func listScenarios(w io.Writer) error {
	// Shard counts and platform spans reflect the default configuration —
	// the same plan a default campaign executes (grid overrides reshape
	// E11's segments, the -platform flag the single-platform scenarios).
	cfg := experiments.Config{}
	fmt.Fprintf(w, "%-4s %-9s %-7s %-26s %s\n", "ID", "alias", "shards", "platforms", "title")
	for _, s := range pdr.Scenarios() {
		alias := ""
		if len(s.Aliases) > 0 {
			alias = s.Aliases[0]
		}
		platforms := "campaign"
		if s.Platforms != nil {
			platforms = strings.Join(s.Platforms(cfg), ",")
		}
		if _, err := fmt.Fprintf(w, "%-4s %-9s %-7d %-26s %s\n", s.ID, alias, s.Shards(cfg), platforms, s.Title); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "(\"campaign\" = runs on the -platform selection)")
	// Parameter rows are indented so no line starts with a scenario ID.
	fmt.Fprintf(w, "\nparameters (-set key=value):\n  %-15s %-13s %s\n", "key", "scenarios", "value")
	for _, p := range experiments.Params() {
		doc := p.Doc
		if p.Choices != nil {
			doc += ": " + strings.Join(p.Choices(), "|")
		}
		if _, err := fmt.Fprintf(w, "  %-15s %-13s %s\n", p.Key, strings.Join(p.Scenarios, ","), doc); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nplatforms (-platform):\n%-22s %-20s %-9s %s\n", "name", "board", "part", "summary")
	for _, p := range pdr.Platforms() {
		name := p.Name
		if p.Variant {
			name += " *"
		}
		if _, err := fmt.Fprintf(w, "%-22s %-20s %-9s %s\n", name, p.Board, p.Part, p.Summary); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "(* = preset of another board)")
	return nil
}
