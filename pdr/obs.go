package pdr

import (
	"repro/internal/obs"
	"repro/internal/workpool"
)

// Tracer is the deterministic tracing and metrics collector. One tracer
// can watch many fleets (and many campaign shards): each run records
// request spans, control-plane events and sim-time gauge series under a
// schedule-independent key, and the exports — Chrome trace-event JSON
// via Chrome, canonical time-series JSON/CSV via MetricsJSON/MetricsCSV —
// are byte-identical at every worker count because every timestamp is
// simulated picoseconds, never wall clock, and buffers merge in board
// index order.
//
// A nil *Tracer is valid everywhere one is accepted and costs nothing:
// the instrumented code paths compile down to nil checks (zero
// allocations, ≤1 % overhead — perfbench's obs.trace_overhead_pct).
type Tracer = obs.Tracer

// WorkerCount is one pool worker's tally (tasks claimed, busy wall
// clock) — see CampaignResult.Pool.
type WorkerCount = workpool.WorkerCount

// NewTracer returns an enabled tracer sampling metrics every simulated
// millisecond (adjust via the SampleEvery field before the first run).
func NewTracer() *Tracer { return obs.New() }

// ReexportTraceEvents parses a Chrome trace-event document written by
// Tracer.Chrome and renders it back to canonical bytes. A Chrome export
// round-trips exactly: ReexportTraceEvents(t.Chrome()) == t.Chrome().
func ReexportTraceEvents(data []byte) ([]byte, error) { return obs.ReexportChrome(data) }

// ReexportMetrics parses a metrics document written by Tracer.MetricsJSON
// and renders it back to canonical bytes; like the trace export it
// round-trips exactly.
func ReexportMetrics(data []byte) ([]byte, error) { return obs.ReexportMetrics(data) }
