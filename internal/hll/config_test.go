package hll

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/zynq"
)

// TestServiceConfigResolution pins the one place a service configuration
// is resolved: for every registered profile, NewService turns the zero
// config into the profile's cache budget, SD staging rate, 32-deep queues
// and FCFS, and honours each override rule.
func TestServiceConfigResolution(t *testing.T) {
	for _, prof := range platform.All() {
		p, err := zynq.NewPlatform(zynq.Options{Seed: 1, Profile: prof, FastThermal: true})
		if err != nil {
			t.Fatal(err)
		}
		c := core.New(p)
		image := int64(imageBytes(p, p.RPs[0]))
		for _, tc := range []struct {
			name     string
			cfg      ServiceConfig
			budget   int64 // sched.Cache budget: 0 = disabled
			queueCap int   // ≤ 0 = unbounded
			policy   string
		}{
			{"zero", ServiceConfig{}, prof.BitstreamCacheBytes(), 32, "fcfs"},
			{"bytes", ServiceConfig{CacheBudgetBytes: 3 * image / 2}, 3 * image / 2, 32, "fcfs"},
			{"images beat bytes", ServiceConfig{CacheBudgetImages: 3, CacheBudgetBytes: 7}, 3 * image, 32, "fcfs"},
			{"images beat disabled", ServiceConfig{CacheBudgetImages: 2, CacheBudgetBytes: -1}, 2 * image, 32, "fcfs"},
			{"disabled, unbounded", ServiceConfig{CacheBudgetBytes: -1, QueueCap: -1, Policy: "sbf"}, 0, -1, "sbf"},
			{"explicit cap", ServiceConfig{QueueCap: 5, Policy: "affinity", Repair: "reload"}, prof.BitstreamCacheBytes(), 5, "affinity"},
		} {
			s := mustService(t, c, tc.cfg)
			if got := s.eng.cache.Budget(); got != tc.budget {
				t.Errorf("%s/%s: cache budget %d, want %d", prof.Name, tc.name, got, tc.budget)
			}
			if got := s.eng.stageRate; got != prof.IO.SDBytesPerSec {
				t.Errorf("%s/%s: staging rate %v, want the profile's SD rate %v", prof.Name, tc.name, got, prof.IO.SDBytesPerSec)
			}
			for name, q := range s.queues {
				if q.Cap() != tc.queueCap {
					t.Errorf("%s/%s: %s queue cap %d, want %d", prof.Name, tc.name, name, q.Cap(), tc.queueCap)
				}
			}
			if got := s.Policy().Name(); got != tc.policy {
				t.Errorf("%s/%s: policy %s, want %s", prof.Name, tc.name, got, tc.policy)
			}
		}
		for _, tc := range []struct {
			cfg   ServiceConfig
			valid string // a valid name the error must list
		}{
			{ServiceConfig{Policy: "lifo"}, "affinity"},
			{ServiceConfig{Repair: "relaod"}, "reload"},
			{ServiceConfig{Repair: "Scrub"}, "scrub"},
		} {
			if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.valid) {
				t.Errorf("Validate(%+v) error %v, want one listing %q", tc.cfg, err, tc.valid)
			}
			if _, err := NewService(c, tc.cfg); err == nil {
				t.Errorf("%s: NewService(%+v) accepted an unknown name", prof.Name, tc.cfg)
			}
		}
	}
}
