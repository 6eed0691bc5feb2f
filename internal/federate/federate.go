// Package federate scales traderd past one process: an edge/aggregator
// tier in which edge ingesters each own a contiguous device-ID hash range
// of the fleet and stream compact rollup deltas upstream to an aggregator,
// which merges them into one fleet-wide view. A dead edge's monitors move,
// checkpointed state and all, to a surviving edge — the paper's E7 monitor
// migration carried to production scale (ARCHITECTURE.md §7).
//
// The tier leans on one property the rest of the repo already enforces:
// every fleet-level statistic is an order-independent integer fold (monitor
// counters, traffic counters, shed tiers, latency count/sum). Sums of sums
// compose exactly, so an aggregator that adds up per-edge deltas holds the
// same numbers a single daemon ingesting every device would — the
// conservation law the federation e2e asserts.
//
// Three moving parts:
//
//   - Edge: wraps an edge daemon's fleet.Pool and dials upstream
//     (wire.Conn, RoleEdge Hello), flushing a RollupDelta every Flush
//     interval and carrying out the adoptions the aggregator directs.
//   - Aggregator: accepts edge uplinks, credits each delta exactly once
//     (per-edge sequence numbers, TypeAck replies), serves the merged
//     View, and repoints the range map when an edge dies.
//   - RangeMap: device-ID hash ranges (fleet.RangeOf, the same FNV-1a that
//     routes devices to shards), each owned by one edge.
//
// Delta streaming is exactly-once without aggregator persistence: after
// the Hello exchange the aggregator sends the cumulative totals it has
// already credited to that edge as a resume baseline, the edge streams
// signed deltas against it (one in flight at a time), and a restarted
// aggregator — whose credited totals reset to zero — is automatically
// re-fed each edge's full cumulative state by the same mechanism.
package federate

import (
	"sort"
	"sync"

	"trader/internal/fleet"
	"trader/internal/wire"
)

// Counters is a named set of signed cumulative counters (or deltas between
// two cumulative states). The zero map is empty and usable with Clone/Diff.
type Counters map[string]int64

// Clone returns an independent copy.
func (c Counters) Clone() Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Add folds d into c in place.
func (c Counters) Add(d Counters) {
	for k, v := range d {
		c[k] += v
	}
}

// Diff returns c − prev with zero entries omitted: the delta that, added to
// prev, reproduces c.
func (c Counters) Diff(prev Counters) Counters {
	out := Counters{}
	for k, v := range c {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range prev {
		if _, ok := c[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	return out
}

// ToWire renders the set as sorted wire counters (byte-stable output).
func (c Counters) ToWire() []wire.RollupCounter {
	out := make([]wire.RollupCounter, 0, len(c))
	for k, v := range c {
		out = append(out, wire.RollupCounter{Name: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FromWire parses wire counters back into a set.
func FromWire(list []wire.RollupCounter) Counters {
	out := make(Counters, len(list))
	for _, c := range list {
		out[c.Name] = c.V
	}
	return out
}

// Sample is one consistent reading of an edge's cumulative fleet state.
type Sample struct {
	// Devices is the edge's live device count — a gauge.
	Devices int64
	// Counters are the edge's cumulative fleet counters.
	Counters Counters
}

// Sampler produces an edge's current cumulative Sample. It runs on the
// edge's uplink goroutine; pool barriers (Rollup) are fine, shard-goroutine
// contexts are not.
type Sampler func() Sample

// PoolSampler builds the standard Sampler over an edge daemon's pool and
// (optionally) its ingestion server: the fleet rollup's monitor and traffic
// counters, the shed tiers, the latency histogram's order-independent
// moments (count and sum), and the server's connection counters. Each extra
// function may add further counters to the sample (the recovery-control and
// diagnosis rollups in traderd); extras run after the built-ins and may
// overwrite them.
func PoolSampler(pool *fleet.Pool, srv *fleet.Server, extra ...func(Counters)) Sampler {
	return func() Sample {
		ro := pool.Rollup()
		c := Counters{
			"inputs":        int64(ro.Monitor.InputsSeen),
			"outputs":       int64(ro.Monitor.OutputsSeen),
			"comparisons":   int64(ro.Monitor.Comparisons),
			"deviations":    int64(ro.Monitor.Deviations),
			"errors":        int64(ro.Monitor.Errors),
			"model_errors":  int64(ro.Monitor.ModelErrors),
			"silence_scans": int64(ro.Monitor.SilenceScans),
			"dispatched":    int64(ro.Dispatched),
			"dropped":       int64(ro.Dropped),
			"quarantined":   int64(ro.Quarantined),
			"reports":       int64(ro.Reports),
			"shed_obs":      int64(ro.ShedObservations),
			"shed_hb":       int64(ro.ShedHeartbeats),
		}
		lat := pool.Latency()
		c["latency_count"] = int64(lat.Count())
		c["latency_sum_ns"] = int64(lat.Sum())
		if srv != nil {
			ss := srv.Stats()
			c["frames"] = int64(ss.Frames)
			c["conns_accepted"] = int64(ss.Accepted)
			c["conns_rejected"] = int64(ss.Rejected)
			c["conns_disconnected"] = int64(ss.Disconnected)
			c["credit_grants"] = int64(ss.CreditGrants)
			c["credit_violations"] = int64(ss.CreditViolations)
		}
		for _, f := range extra {
			f(c)
		}
		return Sample{Devices: int64(ro.Devices), Counters: c}
	}
}

// RangeMap tracks which edge owns each device: by contiguous hash range
// (fleet.RangeOf over the range count). Safe for concurrent use.
type RangeMap struct {
	mu     sync.RWMutex
	owners []string // range index → edge ID ("" = unassigned)
}

// NewRangeMap creates a map over n hash ranges.
func NewRangeMap(n int) *RangeMap {
	return &RangeMap{owners: make([]string, n)}
}

// Assign points a range at an edge.
func (m *RangeMap) Assign(r int, edge string) {
	m.mu.Lock()
	m.owners[r] = edge
	m.mu.Unlock()
}

// Owner returns the edge owning range r.
func (m *RangeMap) Owner(r int) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.owners[r]
}

// OwnerOf returns the edge a device belongs to: the owner of its hash
// range.
func (m *RangeMap) OwnerOf(device string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.owners[fleet.RangeOf(device, len(m.owners))]
}

// Repoint reassigns every range owned by from to to, returning the
// repointed range indices. The failover path: a dead edge's whole
// ownership transfers to the survivor adopting its journal.
func (m *RangeMap) Repoint(from, to string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ranges []int
	for r, e := range m.owners {
		if e == from {
			m.owners[r] = to
			ranges = append(ranges, r)
		}
	}
	return ranges
}
