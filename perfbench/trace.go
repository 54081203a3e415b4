package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; the run writes them out
// when it ends. It times only the benchmark's own calls — nothing inside
// the program is instrumented.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // indices of the spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// nextOp starts a new operation: later spans carry its id.
func (t *tracer) nextOp() { t.op++ }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// sample collects the named spans' durations in the given unit.
func (t *tracer) sample(name string, unit time.Duration) *sim.Sample {
	var out sim.Sample
	for _, s := range t.spans {
		if s.Name == name {
			out.Add(float64(s.End-s.Start) / float64(unit))
		}
	}
	return &out
}

// median is the median duration of the named spans in the given unit.
func (t *tracer) median(name string, unit time.Duration) float64 {
	return t.sample(name, unit).Quantile(0.5)
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover (children never overlap: one goroutine makes
// every call).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// writeSelfTimes prints the self-time table, largest first.
func (t *tracer) writeSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "perfbench: self time by span over %d ops\n", t.op)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %10.1f ms\n", n, float64(self[n])/1e6)
	}
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// allocs reads the cumulative heap allocation counters (objects, bytes).
// It stops the world, so callers read it outside the spans they time.
func allocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
