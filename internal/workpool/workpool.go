// Package workpool provides the deterministic-merge scheduling idiom the
// campaign executor, the fleet epochs and the planner share: n independent units, claimed
// by index from an atomic counter, with every result written to its own
// caller-owned slot — so the merged output never depends on the schedule.
package workpool

import (
	"sync"
	"sync/atomic"
	"time"
)

// Run executes fn(0), …, fn(n-1) on up to workers goroutines (clamped to
// [1, n]; one worker runs the units in index order on the calling
// goroutine). fn must confine its writes to state owned by its unit index.
// Run returns once every unit has finished.
func Run(n, workers int, fn func(i int)) { RunCounted(n, workers, nil, fn) }

// Split divides a goroutine budget between n independent units and the
// work inside each: outer = min(budget, n) units run at once, and each gets
// inner = max(1, budget/outer) goroutines of its own. A budget below 1
// counts as 1. The campaign splits its budget this way over shards, and
// the planner splits its own over one batch of verifying simulations.
func Split(budget, n int) (outer, inner int) {
	budget = max(budget, 1)
	outer = min(budget, n)
	return outer, max(1, budget/max(outer, 1))
}

// WorkerCount is one worker's accumulated utilization: how many units
// it claimed and how much wall-clock time it spent running them. The
// gap between Busy and the pool's elapsed wall time is starvation.
type WorkerCount struct {
	Tasks int64
	Busy  time.Duration
}

// Counters accumulates per-worker utilization across RunCounted calls
// (worker w's tallies sum over every call; the campaign reports them in
// CampaignResult.Pool). Wall-clock measurements only — these never feed
// the deterministic simulation outputs.
type Counters struct {
	mu      sync.Mutex
	workers []WorkerCount
}

func (c *Counters) add(w int, tasks int64, busy time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) <= w {
		c.workers = append(c.workers, WorkerCount{})
	}
	c.workers[w].Tasks += tasks
	c.workers[w].Busy += busy
}

// Snapshot returns a copy of the per-worker tallies (index = worker).
func (c *Counters) Snapshot() []WorkerCount {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerCount, len(c.workers))
	copy(out, c.workers)
	return out
}

// RunCounted is Run with optional utilization accounting: when c is
// non-nil, each worker's claimed-unit count and busy wall time are
// added to c under that worker's index. A nil c takes the exact Run
// path — no clock reads, no locking.
func RunCounted(n, workers int, c *Counters, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if c == nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		c.add(0, int64(n), time.Since(start))
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tasks int64
			var busy time.Duration
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					break
				}
				if c == nil {
					fn(i)
					continue
				}
				t0 := time.Now()
				fn(i)
				busy += time.Since(t0)
				tasks++
			}
			if c != nil && tasks > 0 {
				c.add(w, tasks, busy)
			}
		}(w)
	}
	wg.Wait()
}
