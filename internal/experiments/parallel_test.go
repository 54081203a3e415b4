package experiments

import (
	"testing"
)

// TestFleetScenariosWorkerCountEquality pins the parallel fleet engine at
// the scenario level: every fleet scenario (E13 scale-out, E14 routing,
// E15 chaos, E16 diurnal) must emit byte-identical reports whether the
// per-epoch board advance runs sequentially or fans out over 4 goroutines
// per shard. The budget is a wall-clock knob, never a scientific one.
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
			run := func(budget int) string {
				rep, err := runOne(s, tc.cfg, budget)
				if err != nil {
					t.Fatal(err)
				}
				out, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			// A budget of 4 per shard runs every shard at once and gives
			// each shard's fleet 4 epoch workers.
			if seq, par := run(1), run(4*s.Shards(tc.cfg)); seq != par {
				t.Errorf("%s report changes with Workers=4", tc.id)
			}
		})
	}
}
