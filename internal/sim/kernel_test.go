package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	k.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	k.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != Time(30*Nanosecond) {
		t.Errorf("Now = %v, want 30ns", k.Now())
	}
}

func TestKernelSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal time)", i, v, i)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.Schedule(Nanosecond, func() {
		hits = append(hits, k.Now())
		k.Schedule(Nanosecond, func() {
			hits = append(hits, k.Now())
		})
	})
	k.Run()
	if len(hits) != 2 || hits[0] != Time(Nanosecond) || hits[1] != Time(2*Nanosecond) {
		t.Errorf("hits = %v", hits)
	}
}

func TestKernelRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10*Nanosecond, func() { fired++ })
	k.Schedule(50*Nanosecond, func() { fired++ })
	k.RunUntil(Time(20 * Nanosecond))
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(20*Nanosecond) {
		t.Errorf("Now = %v, want 20ns", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Errorf("fired = %d after Run, want 2", fired)
	}
}

func TestKernelRunForRelative(t *testing.T) {
	k := NewKernel()
	k.RunFor(7 * Microsecond)
	k.RunFor(3 * Microsecond)
	if k.Now() != Time(10*Microsecond) {
		t.Errorf("Now = %v, want 10µs", k.Now())
	}
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewKernel().Schedule(-Nanosecond, func() {})
}

func TestKernelPastAtPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Nanosecond, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(Time(Nanosecond), func() {})
}

func TestKernelNextEventTime(t *testing.T) {
	k := NewKernel()
	if k.NextEventTime() != Never {
		t.Error("empty kernel should report Never")
	}
	k.Schedule(4*Nanosecond, func() {})
	if k.NextEventTime() != Time(4*Nanosecond) {
		t.Errorf("NextEventTime = %v, want 4ns", k.NextEventTime())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.NewTicker(10*Nanosecond, func() { hits = append(hits, k.Now()) })
	k.RunUntil(Time(35 * Nanosecond))
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3", len(hits))
	}
	for i, h := range hits {
		want := Time((i + 1) * 10 * int(Nanosecond))
		if h != want {
			t.Errorf("hits[%d] = %v, want %v", i, h, want)
		}
	}
	if k.Now() != Time(35*Nanosecond) || k.NextEventTime() != Time(40*Nanosecond) {
		t.Errorf("Now = %v, next tick %v; want 35ns and 40ns", k.Now(), k.NextEventTime())
	}
}

func TestKernelSteadyStateAllocFree(t *testing.T) {
	// 64 self-rescheduling events plus a ticker: once the heap has grown,
	// scheduling and firing allocate nothing.
	k := NewKernel()
	for i := 0; i < 64; i++ {
		d := Duration(i+1) * Nanosecond
		var tick func()
		tick = func() { k.Schedule(d, tick) }
		k.Schedule(d, tick)
	}
	k.NewTicker(7*Nanosecond, func() {})
	k.RunFor(Microsecond) // warm up: the heap reaches its steady size
	if allocs := testing.AllocsPerRun(100, func() { k.RunFor(Microsecond) }); allocs != 0 {
		t.Errorf("RunFor allocs = %v, want 0", allocs)
	}
	if k.Pending() != 65 {
		t.Errorf("Pending = %d, want 65", k.Pending())
	}
}

func TestKernelEventCountProperty(t *testing.T) {
	// Property: scheduling n events fires exactly n events (none lost, none
	// duplicated) regardless of their delays.
	prop := func(delays []uint16) bool {
		k := NewKernel()
		for _, d := range delays {
			k.Schedule(Duration(d)*Picosecond, func() {})
		}
		k.Run()
		return k.Fired() == uint64(len(delays)) && k.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKernelMonotonicTimeProperty(t *testing.T) {
	// Property: observed event times are non-decreasing.
	prop := func(delays []uint32) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.Schedule(Duration(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
