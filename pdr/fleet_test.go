package pdr_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/pdr"
)

var fleetASPs = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func TestFleetServeEndToEnd(t *testing.T) {
	f, err := pdr.NewFleet(pdr.FleetOptions{
		Boards:  []string{"zedboard", "zedboard", "zedboard"},
		Seed:    42,
		Router:  "least-outstanding",
		Service: pdr.ServiceConfig{Prewarm: fleetASPs},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.OpenTrace(pdr.ArrivalSpec{
		RatePerSec: 900,
		Tenants:    []string{"video", "crypto"},
		Deadline:   20 * sim.Millisecond,
	}, 7, 96, fleetASPs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggregate.Offered != 96 {
		t.Errorf("offered = %d, want 96", st.Aggregate.Offered)
	}
	if got := st.Aggregate.Completed + st.Aggregate.Shed + st.Aggregate.Failures; got != 96 {
		t.Errorf("accounted = %d, want 96", got)
	}
	if len(st.Boards) != 3 {
		t.Errorf("boards = %d, want 3", len(st.Boards))
	}
	// Tenant accounting merges across boards.
	total := 0
	for _, name := range st.Aggregate.TenantNames() {
		total += st.Aggregate.Tenants[name].Offered
	}
	if total != 96 {
		t.Errorf("tenant offered sum = %d, want 96", total)
	}
	// A Fleet is reusable: each Serve runs on fresh boards, so a repeat is
	// byte-identical.
	st2, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Error("repeated Fleet.Serve diverged — runs must be pure functions of (options, trace)")
	}
}

func TestFleetDefaultsAndMixedRPs(t *testing.T) {
	f, err := pdr.NewFleet(pdr.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Errorf("default fleet size = %d, want 2", f.Size())
	}
	if got := f.RPNames(); len(got) != 4 {
		t.Errorf("default (zedboard) fleet RPs = %v, want 4 partitions", got)
	}
	mixed, err := pdr.NewFleet(pdr.FleetOptions{Boards: []string{"zc706", "zybo-z7-10"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.RPNames(); len(got) != 3 {
		t.Errorf("mixed fleet common RPs = %v, want the 3-partition intersection", got)
	}
}

func TestFleetOptionErrors(t *testing.T) {
	if _, err := pdr.NewFleet(pdr.FleetOptions{Boards: []string{"nope"}}); err == nil || !strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("unknown platform accepted (err = %v)", err)
	}
	if _, err := pdr.NewFleet(pdr.FleetOptions{Router: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown router") {
		t.Errorf("unknown router accepted (err = %v)", err)
	}
	if _, err := pdr.NewFleet(pdr.FleetOptions{Service: pdr.ServiceConfig{Policy: "nope"}}); err == nil {
		t.Error("unknown dispatch policy accepted")
	}
	if _, err := pdr.NewFleet(pdr.FleetOptions{Service: pdr.ServiceConfig{Repair: "relaod"}}); err == nil || !strings.Contains(err.Error(), "reload") {
		t.Errorf("unknown repair mode accepted (err = %v)", err)
	}
	if _, err := pdr.NewFleet(pdr.FleetOptions{
		Autoscale: &pdr.AutoscalePolicy{Window: sim.Millisecond, Min: 1, Max: 9},
	}); err == nil {
		t.Error("autoscaler bounds beyond the fleet accepted")
	}
}

// TestFleetRejectsWhatClusterRejects: NewFleet and cluster.New share one
// validator, so each malformed fleet fails both with the same error, which
// pdr only prefixes.
func TestFleetRejectsWhatClusterRejects(t *testing.T) {
	four := make([]string, 4)
	down := func(at sim.Duration, board int) pdr.FaultEvent {
		return pdr.FaultEvent{At: at, Board: board, Kind: chaos.BoardDown}
	}
	for _, c := range []struct {
		name string
		opts pdr.FleetOptions
	}{
		{"unknown platform", pdr.FleetOptions{Boards: []string{"zedboard", "nope"}}},
		{"unknown dispatch policy", pdr.FleetOptions{Boards: four, Service: pdr.ServiceConfig{Policy: "ghost"}}},
		{"unknown repair mode", pdr.FleetOptions{Boards: four, Service: pdr.ServiceConfig{Repair: "relaod"}}},
		{"autoscaler max beyond the fleet", pdr.FleetOptions{Boards: four,
			Autoscale: &pdr.AutoscalePolicy{Window: sim.Millisecond, Min: 1, Max: 5}}},
		{"chaos event on board 9 of 4", pdr.FleetOptions{Boards: four,
			Chaos: &pdr.ChaosPolicy{Schedule: []pdr.FaultEvent{down(sim.Millisecond, 9)}}}},
		{"unsorted chaos schedule", pdr.FleetOptions{Boards: four,
			Chaos: &pdr.ChaosPolicy{Schedule: []pdr.FaultEvent{down(2*sim.Millisecond, 0), down(sim.Millisecond, 1)}}}},
		{"negative probe interval", pdr.FleetOptions{Boards: four,
			Chaos: &pdr.ChaosPolicy{ProbeEvery: -sim.Millisecond}}},
	} {
		specs := make([]cluster.BoardSpec, len(c.opts.Boards))
		for i, p := range c.opts.Boards {
			specs[i].Platform = p
		}
		_, cerr := cluster.New(cluster.FleetConfig{
			Boards:     specs,
			Service:    c.opts.Service,
			Autoscaler: c.opts.Autoscale,
			Chaos:      c.opts.Chaos,
		})
		_, perr := pdr.NewFleet(c.opts)
		if cerr == nil || perr == nil {
			t.Errorf("%s: accepted (cluster.New: %v, pdr.NewFleet: %v)", c.name, cerr, perr)
			continue
		}
		if perr.Error() != "pdr: "+cerr.Error() {
			t.Errorf("%s: errors differ:\n  cluster.New:  %v\n  pdr.NewFleet: %v", c.name, cerr, perr)
		}
	}
}

func TestRoutersListing(t *testing.T) {
	names := pdr.Routers()
	want := []string{"round-robin", "least-outstanding", "weighted", "affinity"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Routers() = %v, want %v", names, want)
	}
}
