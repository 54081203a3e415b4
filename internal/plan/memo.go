package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hll"
)

// Key is the memoization key of one verifying simulation: a SHA-256 over
// the canonical encoding of everything the simulated outcome depends on —
// the stream (seed, rate, request count, deadline, ASP mix) and the fleet
// configuration (board platforms in index order, frequency, router, cache
// budget, queue cap, prewarm set). Wall-clock-only knobs (tier-B workers,
// per-fleet epoch workers) are deliberately excluded: they never change the
// simulated bytes, so a warm cache serves every worker count.
func Key(c Candidate, w Workload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d|rate=%g|n=%d|deadline=%d|asps=%s|boards=",
		w.Seed, w.RatePerSec, w.Requests, int64(w.Deadline), strings.Join(w.ASPs, ","))
	for i, spec := range c.Boards {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(spec.Platform)
	}
	fmt.Fprintf(&b, "|freq=%g|router=%s|cache=%d|queue=%d|prewarm=%s",
		c.FreqMHz, c.Router, c.CacheImages, simQueueCap, strings.Join(w.ASPs, ","))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Memo caches verifying-simulation results across refinement rounds and
// across repeated planner calls (share one Memo between Search calls to
// reuse results — e.g. re-planning the same space under a different SLO).
// It also holds the image store every verifying fleet builds its
// bitstreams from, so the Search calls sharing a memo build each distinct
// image once. Safe for concurrent use.
type Memo struct {
	mu     sync.Mutex
	m      map[string]*cluster.FleetStats
	images *hll.ImageStore
}

// NewMemo builds an empty cache with an empty image store.
func NewMemo() *Memo {
	return &Memo{m: make(map[string]*cluster.FleetStats), images: hll.NewImageStore()}
}

// Len returns the number of cached simulations.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

func (m *Memo) get(key string) (*cluster.FleetStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.m[key]
	return st, ok
}

func (m *Memo) put(key string, st *cluster.FleetStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = st
}
