package workpool

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		const n = 37
		counts := make([]int64, n)
		Run(n, workers, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: unit %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunSingleWorkerInOrder(t *testing.T) {
	var order []int
	Run(5, 1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}

func TestRunZeroUnits(t *testing.T) {
	Run(0, 4, func(int) { t.Error("fn called for n=0") })
	Run(-1, 4, func(int) { t.Error("fn called for n<0") })
}

func TestRunCountedTallies(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const n = 24
		c := &Counters{}
		counts := make([]int64, n)
		RunCounted(n, workers, c, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, got := range counts {
			if got != 1 {
				t.Errorf("workers=%d: unit %d ran %d times", workers, i, got)
			}
		}
		snap := c.Snapshot()
		if len(snap) == 0 || len(snap) > workers {
			t.Fatalf("workers=%d: snapshot has %d workers", workers, len(snap))
		}
		var tasks int64
		for w, wc := range snap {
			tasks += wc.Tasks
			if wc.Tasks > 0 && wc.Busy <= 0 {
				t.Errorf("workers=%d: worker %d claimed %d tasks with no busy time", workers, w, wc.Tasks)
			}
		}
		if tasks != n {
			t.Errorf("workers=%d: task tally = %d, want %d", workers, tasks, n)
		}
	}
}

func TestRunCountedNilCountersIsRun(t *testing.T) {
	const n = 16
	counts := make([]int64, n)
	RunCounted(n, 4, nil, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Errorf("unit %d ran %d times", i, c)
		}
	}
	var c *Counters
	if snap := c.Snapshot(); snap != nil {
		t.Errorf("nil counters snapshot = %v", snap)
	}
}

// TestSplit pins the budget rule both callers use: the campaign splits
// its budget over shards (n = units), the planner splits its own over one
// tier-B batch (n = cold simulations, inner = each simulation's fleet
// workers).
func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		name         string
		budget, n    int
		outer, inner int
	}{
		{"sequential", 1, 10, 1, 1},
		{"below one counts as one", 0, 3, 1, 1},
		{"negative budget", -4, 3, 1, 1},
		{"more units than budget", 4, 10, 4, 1},
		{"one unit takes the whole budget", 4, 1, 1, 4},
		{"budget above units", 40, 10, 10, 4},
		{"remainder dropped", 9, 4, 4, 2},
		{"planner batch of three", 8, 3, 3, 2},
		{"no units", 4, 0, 0, 4},
	} {
		outer, inner := Split(tc.budget, tc.n)
		if outer != tc.outer || inner != tc.inner {
			t.Errorf("%s: Split(%d, %d) = (%d, %d), want (%d, %d)",
				tc.name, tc.budget, tc.n, outer, inner, tc.outer, tc.inner)
		}
	}
}
