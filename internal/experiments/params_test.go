package experiments

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestParamTable walks every declared parameter: a valid value reaches
// the scenario that reads it, and a malformed or out-of-range one is
// rejected with an error naming the key, leaving the Config untouched.
func TestParamTable(t *testing.T) {
	dir := t.TempDir()
	day := filepath.Join(dir, "day.json")
	tr, err := DiurnalTrace(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data, err := workload.ExportTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(day, data, 0o644); err != nil {
		t.Fatal(err)
	}
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	shards := func(id string, cfg Config) int {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		return s.Shards(cfg)
	}
	want := []float64{100, 200}
	rows := []struct {
		key, valid, bad string
		reached         func(Config) bool
	}{
		{"freqs", "100, 200", "100,-5", func(c Config) bool {
			sf, _ := stressGrid(c)
			ff, _ := fig6Grid(c)
			return slices.Equal(fig5Grid(c), want) && shards("E2", c) == 2 &&
				slices.Equal(sf, want) && slices.Equal(ff, want) && slices.Equal(xplatGrid(c, nil), want)
		}},
		{"temps", "40,100", "40,Inf", func(c Config) bool {
			_, ft := fig6Grid(c)
			return shards("E3", c) == 2 && slices.Equal(ft, []float64{40, 100})
		}},
		{"E11.rates", "50,400", "0", func(c Config) bool {
			return slices.Equal(satRateGrid(c), []float64{50, 400}) && shards("E11", c) == 3
		}},
		{"E13.fleet", "1,2", ",", func(c Config) bool { return shards("E13", c) == 6 }},
		{"E13.router", "affinity", "Affinity", func(c Config) bool { return fleetRouterName(c) == "affinity" }},
		{"E15.crashes", "3", "3.0", func(c Config) bool { return chaosStorm(c).Crashes == 3 }},
		{"E15.excursions", "-1", "-", func(c Config) bool { return chaosStorm(c).Excursions == 0 }},
		{"E15.glitches", "5", "0x5", func(c Config) bool { return chaosStorm(c).Glitches == 5 }},
		{"E16.trace", day, garbled, func(c Config) bool {
			got, err := DiurnalTrace(c)
			return err == nil && reflect.DeepEqual(got, tr)
		}},
		{"E16.scaler", "reactive", "", func(c Config) bool {
			return shards("E16", c) == 1 && slices.Equal(diurnalPolicies(c), []string{"reactive"})
		}},
		{"E17.rate", "2800", "-2800", func(c Config) bool { return planWorkload(c).RatePerSec == 2800 }},
		{"E17.p99", "10", "NaN", func(c Config) bool { return planSLO(c).P99 == 10*sim.Millisecond }},
		{"E17.shed", "0.005", "1.5", func(c Config) bool { return planSLO(c).MaxShed == 0.005 }},
	}
	var keys []string
	for _, row := range rows {
		keys = append(keys, row.key)
		var c Config
		if err := c.Set(row.key, row.valid); err != nil {
			t.Errorf("%s=%q rejected: %v", row.key, row.valid, err)
		} else if !row.reached(c) {
			t.Errorf("%s=%q did not reach its scenario", row.key, row.valid)
		}
		before := c
		if err := c.Set(row.key, row.bad); err == nil || !strings.Contains(err.Error(), "parameter "+row.key+":") {
			t.Errorf("%s=%q: err = %v, want a rejection naming the key", row.key, row.bad, err)
		}
		if !reflect.DeepEqual(c, before) {
			t.Errorf("%s=%q was rejected but changed the Config", row.key, row.bad)
		}
	}
	if !slices.Equal(keys, ParamKeys()) {
		t.Errorf("table covers %v, declared keys are %v", keys, ParamKeys())
	}
	for _, p := range Params() {
		if p.Doc == "" || len(p.Scenarios) == 0 {
			t.Errorf("%s: missing doc or readers", p.Key)
		}
		for _, id := range p.Scenarios {
			if _, ok := Lookup(id); !ok {
				t.Errorf("%s: reader %s is not a registered scenario", p.Key, id)
			}
		}
	}
}

func TestParamUnknownKeyListsKeys(t *testing.T) {
	var c Config
	err := c.Set("E13.size", "2")
	if err == nil || !strings.Contains(err.Error(), strings.Join(ParamKeys(), "|")) {
		t.Errorf("err = %v, want the valid keys listed", err)
	}
}

// FuzzConfigSet: no key or value panics Set; a rejected value leaves the
// Config as it was with an error naming the key; an accepted one obeys
// its parameter's rule. The seed corpus is in testdata/fuzz/FuzzConfigSet.
func FuzzConfigSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, value string) {
		var c Config
		err := c.Set(key, value)
		if err != nil {
			if !reflect.DeepEqual(c, Config{}) {
				t.Errorf("rejected %s=%q changed the Config", key, value)
			}
			want := "parameter " + key + ":"
			if !slices.Contains(ParamKeys(), key) {
				want = "unknown parameter"
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%q: error %q lacks %q", key, value, err, want)
			}
			return
		}
		if msg := ruleBroken(c); msg != "" {
			t.Errorf("%s=%q accepted but %s", key, value, msg)
		}
	})
}

// ruleBroken restates each parameter's rule independently of the setters.
func ruleBroken(c Config) string {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, f := range append(slices.Clone(c.Freqs), c.Rates...) {
		if !finite(f) || f <= 0 {
			return "a frequency or rate is not positive"
		}
	}
	for _, x := range c.Temps {
		if !finite(x) {
			return "a temperature is not finite"
		}
	}
	for _, n := range c.FleetSizes {
		if n < 1 {
			return "a fleet size is below 1"
		}
	}
	if c.Router != "" && !slices.Contains(cluster.RouterNames(), c.Router) {
		return "the router is unknown"
	}
	if c.Scaler != "" && !slices.Contains(cluster.ScalerPolicies(), c.Scaler) {
		return "the scaler is unknown"
	}
	for _, x := range []float64{c.PlanRate, c.PlanP99MS, c.PlanShed} {
		if !finite(x) || x < 0 {
			return "a planner value is negative or not finite"
		}
	}
	if c.PlanShed > 1 {
		return "the shed fraction exceeds 1"
	}
	return ""
}
