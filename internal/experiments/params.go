package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster"
)

// Param is one declared scenario parameter: the only place its key, its
// readers, its default and its validity rule are written down. Callers
// outside Go (pdr.WithParam, pdrbench -set) reach it through Config.Set;
// Go callers may still fill the typed Config field directly.
type Param struct {
	// Key names the parameter: a bare axis name when several scenarios
	// read it ("freqs"), otherwise "<scenario>.<name>" ("E13.router").
	Key string
	// Scenarios lists the IDs of the scenarios that read it.
	Scenarios []string
	// Doc states the value's form, its validity rule and its default.
	Doc string
	// Choices, when non-nil, lists the only valid values. It is called
	// when a value is set or listed, never at init.
	Choices func() []string

	set func(cfg *Config, value string) error
}

// params is the parameter table, one row per scenario parameter, in the
// order -list prints it. A static table: nothing here runs at init.
var params = []Param{
	{
		Key: "freqs", Scenarios: []string{"E2", "E3", "E4", "E10"},
		Doc: "frequency axis [MHz]: comma-separated positive numbers (default: each scenario's paper grid; E10 each board's switch table)",
		set: func(c *Config, v string) (err error) { c.Freqs, err = list(v, positive); return err },
	},
	{
		Key: "temps", Scenarios: []string{"E3", "E4"},
		Doc: "die-temperature axis [°C]: comma-separated finite numbers (default: the paper grids)",
		set: func(c *Config, v string) (err error) { c.Temps, err = list(v, finite); return err },
	},
	{
		Key: "E11.rates", Scenarios: []string{"E11"},
		Doc: "offered-load axis [req/s]: comma-separated positive numbers (default 25,50,100,400,800,1600)",
		set: func(c *Config, v string) (err error) { c.Rates, err = list(v, positive); return err },
	},
	{
		Key: "E13.fleet", Scenarios: []string{"E13"},
		Doc: "fleet-size axis: comma-separated positive integers (default 1,2,4,8)",
		set: func(c *Config, v string) (err error) { c.FleetSizes, err = list(v, positiveInt); return err },
	},
	{
		Key: "E13.router", Scenarios: []string{"E13"},
		Doc:     "routing policy (default least-outstanding)",
		Choices: cluster.RouterNames,
		set:     func(c *Config, v string) error { c.Router = v; return nil },
	},
	{
		Key: "E15.crashes", Scenarios: []string{"E15"},
		Doc: "board outages in the fault storm: integer, 0 = the standard storm, negative = none",
		set: func(c *Config, v string) (err error) { c.ChaosCrashes, err = integer(v); return err },
	},
	{
		Key: "E15.excursions", Scenarios: []string{"E15"},
		Doc: "thermal excursions in the fault storm: integer, 0 = the standard storm, negative = none",
		set: func(c *Config, v string) (err error) { c.ChaosExcursions, err = integer(v); return err },
	},
	{
		Key: "E15.glitches", Scenarios: []string{"E15"},
		Doc: "CRC glitch bursts in the fault storm: integer, 0 = the standard storm, negative = none",
		set: func(c *Config, v string) (err error) { c.ChaosGlitches, err = integer(v); return err },
	},
	{
		Key: "E16.trace", Scenarios: []string{"E16"},
		Doc: "replay the arrival stream from this versioned trace file, which must read and import (default: generated from the seed)",
		set: func(c *Config, v string) error {
			// Read the file now, so a bad path or file fails before any shard.
			_, err := readTraceFile(v)
			c.TraceFile = v
			return err
		},
	},
	{
		Key: "E16.scaler", Scenarios: []string{"E16"},
		Doc:     "run one autoscaler policy only (default: compare every policy)",
		Choices: cluster.ScalerPolicies,
		set:     func(c *Config, v string) error { c.Scaler = v; return nil },
	},
	{
		Key: "E17.rate", Scenarios: []string{"E17"},
		Doc: "offered load to plan for [req/s]: a positive number (default 2200)",
		set: func(c *Config, v string) (err error) { c.PlanRate, err = positive(v); return err },
	},
	{
		Key: "E17.p99", Scenarios: []string{"E17"},
		Doc: "SLO p99 sojourn bound [ms]: a positive number (default 12)",
		set: func(c *Config, v string) (err error) { c.PlanP99MS, err = positive(v); return err },
	},
	{
		Key: "E17.shed", Scenarios: []string{"E17"},
		Doc: "SLO maximum shed fraction: a number in (0, 1] (default 0.01)",
		set: func(c *Config, v string) (err error) { c.PlanShed, err = fraction(v); return err },
	},
}

// Params returns the parameter table in declaration order.
func Params() []Param { return slices.Clone(params) }

// ParamKeys returns every declared parameter key in declaration order.
func ParamKeys() []string {
	keys := make([]string, len(params))
	for i, p := range params {
		keys[i] = p.Key
	}
	return keys
}

// Set parses value for the parameter key, checks it against that
// parameter's rule and stores it in the typed Config field. It is the one
// parser of scenario parameters, so every caller gets the same rule, and
// a campaign can reject a bad value before any shard runs. The error names
// the key, or lists the valid keys when key is unknown.
func (c *Config) Set(key, value string) error {
	i := slices.IndexFunc(params, func(p Param) bool { return p.Key == key })
	if i < 0 {
		return fmt.Errorf("experiments: unknown parameter %q (want %s)", key, strings.Join(ParamKeys(), "|"))
	}
	p := params[i]
	if p.Choices != nil && !slices.Contains(p.Choices(), value) {
		return fmt.Errorf("experiments: parameter %s: unknown value %q (want %s)", key, value, strings.Join(p.Choices(), "|"))
	}
	// Parse into a copy so a rejected value leaves c as it was.
	next := *c
	if err := p.set(&next, value); err != nil {
		return fmt.Errorf("experiments: parameter %s: %w", key, err)
	}
	*c = next
	return nil
}

// list parses a comma-separated list item by item. Blank items are
// skipped, but the list must hold at least one value.
func list[T any](v string, item func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		x, err := item(s)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", v)
	}
	return out, nil
}

func finite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return x, nil
}

func positive(s string) (float64, error) {
	x, err := finite(s)
	if err == nil && x <= 0 {
		err = fmt.Errorf("%q out of range (want > 0)", s)
	}
	return x, err
}

func fraction(s string) (float64, error) {
	x, err := positive(s)
	if err == nil && x > 1 {
		err = fmt.Errorf("%q out of range (want a fraction in (0, 1])", s)
	}
	return x, err
}

func integer(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%q is not an integer", s)
	}
	return n, nil
}

func positiveInt(s string) (int, error) {
	n, err := integer(s)
	if err == nil && n < 1 {
		err = fmt.Errorf("%q out of range (want a positive integer)", s)
	}
	return n, err
}
