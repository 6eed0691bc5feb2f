// Package metrics provides the latency-observability primitives of the
// fleet's SLO plane: a lock-free fixed-bucket (HDR-style) histogram cheap
// enough to record on the per-event dispatch hot path, quantile extraction
// over immutable snapshots, and Prometheus text rendering for the daemon's
// /metrics endpoint.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Bucket geometry: recorded values are durations in nanoseconds. Values
// below 2·2^subBits nanoseconds get exact one-nanosecond buckets; above
// that, each power of two is split into 2^subBits sub-buckets, bounding the
// relative quantile error at ~3% while keeping the whole histogram a flat
// array of ~1.2k counters (~10 KiB) recorded into with one atomic add and
// no locks.
const (
	subBits  = 5
	subCount = 1 << subBits
	// maxExp caps recorded values at 2^maxExp ns (~18 minutes); anything
	// slower saturates the top bucket, which is already far past any
	// latency SLO worth stating.
	maxExp     = 40
	maxValue   = int64(1) << maxExp
	numBuckets = (maxExp-subBits)*subCount + subCount + 1
)

// bucketOf maps a non-negative nanosecond value to its bucket index. The
// linear region (indices [0, 2·subCount)) holds values below 2·subCount
// exactly; above it, bucket b holds values with their top bit at position
// b+subBits, split by the next subBits bits.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v > maxValue {
		v = maxValue
	}
	b := bits.Len64(uint64(v)) - (subBits + 1)
	if b < 0 {
		b = 0
	}
	return b*subCount + int(v>>uint(b))
}

// upperOf is bucketOf's inverse: the largest nanosecond value the bucket
// holds, which is what quantile extraction reports (a conservative,
// never-flattering estimate).
func upperOf(i int) int64 {
	b := i/subCount - 1
	if b < 0 {
		b = 0
	}
	sub := int64(i - b*subCount)
	return (sub+1)<<uint(b) - 1
}

// Histogram is a lock-free latency histogram. Record may be called
// concurrently from any number of goroutines; Snapshot may race Record and
// returns a nearly-consistent copy (counters move one atomic add at a
// time, so a racing snapshot is at worst one observation stale per
// counter).
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	// exemplars holds, per bucket, the trace ID of the most recent sampled
	// observation that landed there (§6.2 exemplars): a latency bucket is a
	// count, an exemplar is the name of a span chain explaining one of the
	// observations it counted. Zero means "no sampled observation yet".
	exemplars [numBuckets]atomic.Uint64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// Record adds one observation. Negative durations clamp to zero; durations
// beyond ~18 minutes saturate the top bucket.
func (h *Histogram) Record(d time.Duration) { h.RecordEx(d, 0) }

// RecordEx adds one observation and, when traceID is nonzero (the
// observation belongs to a sampled trace), stamps it as the bucket's
// exemplar. The unsampled path pays nothing beyond Record.
func (h *Histogram) RecordEx(d time.Duration, traceID uint64) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.counts[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[b].Store(traceID)
	}
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.exemplars[i] = h.exemplars[i].Load()
	}
	s.count = h.count.Load()
	s.sum = h.sum.Load()
	return s
}

// Snapshot is an immutable copy of a histogram, mergeable across shards.
type Snapshot struct {
	counts    [numBuckets]uint64
	exemplars [numBuckets]uint64
	count     uint64
	sum       int64
}

// Merge adds another snapshot's observations into s. Exemplars are not
// additive; a bucket keeps its own unless the other snapshot has one and
// it does not — any sampled witness beats none.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
		if s.exemplars[i] == 0 {
			s.exemplars[i] = o.exemplars[i]
		}
	}
	s.count += o.count
	s.sum += o.sum
}

// Count returns the number of recorded observations.
func (s *Snapshot) Count() uint64 { return s.count }

// Sum returns the summed observations.
func (s *Snapshot) Sum() time.Duration { return time.Duration(s.sum) }

// Quantile returns the value at quantile q in [0,1] as the upper edge of
// the bucket holding the rank — an estimate that errs high (≤ ~3%
// relative), never low. An empty snapshot returns 0.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(upperOf(s.quantileBucket(q)))
}

// quantileBucket returns the index of the bucket holding quantile q's rank.
func (s *Snapshot) quantileBucket(q float64) int {
	target := uint64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	if target > s.count {
		target = s.count
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			return i
		}
	}
	return numBuckets - 1
}

// Exemplar returns the trace ID witnessing quantile q: the exemplar of
// the bucket holding q's rank, or failing that the nearest bucket with
// one — searching upward first (a tail quantile's interesting witness is
// the slower outlier, not the faster median) and then downward. Zero
// means no sampled observation has been recorded anywhere near q.
func (s *Snapshot) Exemplar(q float64) uint64 {
	if s.count == 0 {
		return 0
	}
	at := s.quantileBucket(q)
	for i := at; i < numBuckets; i++ {
		if s.exemplars[i] != 0 {
			return s.exemplars[i]
		}
	}
	for i := at - 1; i >= 0; i-- {
		if s.exemplars[i] != 0 {
			return s.exemplars[i]
		}
	}
	return 0
}

// CountAtMost returns how many observations fall in buckets entirely at or
// below d — the cumulative count a Prometheus `le` bucket reports.
func (s *Snapshot) CountAtMost(d time.Duration) uint64 {
	var cum uint64
	for i, c := range s.counts {
		if time.Duration(upperOf(i)) > d {
			break
		}
		cum += c
	}
	return cum
}

// PromEdges is the default `le` bucket layout for Prometheus export: wide
// enough to bracket both an in-process dispatch (~µs) and a journal-stalled
// one (~s).
var PromEdges = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	5 * time.Second,
	10 * time.Second,
}

// WriteProm renders the snapshot as one Prometheus histogram metric. labels
// is rendered verbatim inside the braces next to `le` (pass "" for none,
// `shard="3"` style otherwise); edges is the `le` layout (PromEdges when
// nil). Prometheus convention makes the unit seconds.
func (s *Snapshot) WriteProm(w io.Writer, name, labels string, edges []time.Duration) {
	if edges == nil {
		edges = PromEdges
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, e := range edges {
		le := strconv.FormatFloat(e.Seconds(), 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, s.CountAtMost(e))
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(s.Sum().Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, s.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(s.Sum().Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.count)
	}
}

// WritePromCounters renders a named counter set as Prometheus text, one
// `<prefix>_<name>` line per counter in sorted name order (scrape-stable
// output). labels is rendered verbatim inside braces when non-empty. The
// federation aggregator uses it to serve its merged fleet-wide view; any
// map of order-independent integer folds renders the same way.
func WritePromCounters(w io.Writer, prefix, labels string, counters map[string]int64) {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if labels == "" {
			fmt.Fprintf(w, "%s_%s %d\n", prefix, name, counters[name])
		} else {
			fmt.Fprintf(w, "%s_%s{%s} %d\n", prefix, name, labels, counters[name])
		}
	}
}
