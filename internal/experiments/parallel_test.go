package experiments

import (
	"context"
	"testing"
)

// TestFleetScenariosWorkerCountEquality pins the parallel fleet engine at
// the scenario level: every fleet scenario (E13 scale-out, E14 routing,
// E15 chaos, E16 diurnal) must emit byte-identical reports whether the
// per-epoch board advance runs sequentially or fans out over 4 goroutines.
// The Workers budget is a wall-clock knob, never a scientific one.
func TestFleetScenariosWorkerCountEquality(t *testing.T) {
	for _, tc := range []struct {
		id  string
		cfg Config
	}{
		{"E13", Config{Seed: 42, FleetSizes: []int{2}}},
		{"E14", Config{Seed: 42}},
		{"E15", Config{Seed: 42}},
		{"E16", Config{Seed: 42}},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			s, ok := Lookup(tc.id)
			if !ok {
				t.Fatalf("%s not registered", tc.id)
			}
			run := func(workers int) string {
				cfg := tc.cfg
				cfg.Workers = workers
				rep, err := RunSequential(context.Background(), s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			if seq, par := run(1), run(4); seq != par {
				t.Errorf("%s report changes with Workers=4", tc.id)
			}
		})
	}
}
