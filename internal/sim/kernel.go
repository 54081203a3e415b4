package sim

import (
	"fmt"
)

// entry is one heap element: the callback and its sort key (at, seq). Events
// at equal times fire in scheduling order (FIFO, by seq), which keeps
// simulations deterministic.
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is a single-threaded discrete-event simulation engine. The zero
// value is ready to use (time starts at 0 with an empty queue).
//
// Kernel is not safe for concurrent use; hardware models are single-threaded
// by design so that event ordering is exact. Schedule/Step run allocation-free
// in steady state: the heap is a flat slice of (time, seq, callback) entries
// whose backing array is reused once it has grown.
type Kernel struct {
	heap  []entry
	now   Time
	seq   uint64
	fired uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return len(k.heap) }

// Fired returns the total number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Schedule queues fn to run after delay d. Negative delays panic: a hardware
// model asking for time travel is always a bug.
func (k *Kernel) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now.Add(d), fn)
}

// At queues fn to run at absolute time t, which must not be in the past.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	h := append(k.heap, entry{at: t, seq: k.seq, fn: fn})
	k.seq++
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.heap = h
}

// Step executes the single next event. It reports false when the queue is
// empty.
func (k *Kernel) Step() bool {
	h := k.heap
	n := len(h) - 1
	if n < 0 {
		return false
	}
	e := h[0]
	h[0] = h[n]
	h[n] = entry{} // drop the vacated slot's closure so it can be collected
	h = h[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(h[r], h[l]) {
			m = r
		}
		if !entryLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	if e.at < k.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	k.now = e.at
	k.fired++
	e.fn()
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to t.
// Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, k.now))
	}
	for len(k.heap) > 0 && k.heap[0].at <= t {
		k.Step()
	}
	k.now = t
}

// RunFor executes events within the next d of simulated time and advances the
// clock by exactly d.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// NextEventTime returns the timestamp of the next pending event, or Never if
// the queue is empty.
func (k *Kernel) NextEventTime() Time {
	if len(k.heap) == 0 {
		return Never
	}
	return k.heap[0].at
}

// NewTicker calls fn every period, starting one period from now, for the
// kernel's whole life. It is the building block for free-running hardware
// such as refresh engines and sensors.
func (k *Kernel) NewTicker(period Duration, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	// One closure for the ticker's whole life: re-arming reuses it, so a
	// running ticker allocates nothing per tick.
	var tick func()
	tick = func() {
		fn()
		k.Schedule(period, tick)
	}
	k.Schedule(period, tick)
}
