// Package trace is the frame-lifecycle tracing plane (ARCHITECTURE.md §6):
// an always-on, sampled tracer that turns "why was this device's escalation
// 40 ms late?" into a span chain instead of a log-correlation exercise.
//
// One in every SampleN observation frames admitted at ingest gets a trace
// context — a fleet-unique trace ID plus the parent span ID — and every
// stage it passes through (ingest, credit/shed decision, journal append,
// shard dispatch, monitor step, control action, diagnose fold, federation
// uplink/ack) emits a fixed-size span record into a lock-free per-shard
// ring buffer, the flight-recorder idiom of hwmon.FlightRecorder rebuilt
// for hot paths: recording is a handful of atomic stores, never a lock,
// never an allocation. Control and escalation traffic is traced *forced*
// — always, regardless of sampling — into a dedicated ring whose
// evictions are counted (ForcedOverflow), because losing the trace of a
// restart is losing the explanation the plane exists to give.
//
// The context crosses process boundaries on the wire (wire.TraceContext,
// §2.7 flags bit8): control pushes carry it down to the device, whose ack
// echoes it back; edge daemons attach their current tail-latency exemplar
// context to rollup frames so the aggregator's view of a p999 spike
// resolves to the edge-side span chain that produced it.
package trace

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"trader/internal/wire"
)

// Kind names the lifecycle stage a span measures. The taxonomy is
// normative (ARCHITECTURE.md §6.2): exporters and the /trace endpoint
// render these names, and tests assert on them.
type Kind uint8

// The span taxonomy, one Kind per stage of a frame's lifecycle.
const (
	KindIngest   Kind = iota + 1 // server read loop: decode → dispatch handoff
	KindCredit                   // flow-control decision: grant or violation
	KindShed                     // load-shedding decision: frame dropped, tier in hand
	KindJournal                  // write-ahead append (+ its share of the fsync batch)
	KindDispatch                 // shard-queue wait: enqueue → shard goroutine pickup
	KindMonitor                  // the monitor step itself, on the shard goroutine
	KindControl                  // a control-ladder action pushed to the device
	KindDiagnose                 // a diagnosis evidence fold on the engine goroutine
	KindUplink                   // edge → aggregator rollup-delta flush
	KindAck                      // an acknowledgement completing a traced exchange
)

var kindNames = [...]string{"", "ingest", "credit", "shed", "journal",
	"dispatch", "monitor", "control", "diagnose", "uplink", "ack"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one completed lifecycle stage. Records are fixed-size in the
// rings (the device ID is truncated to 32 bytes there); this is the
// assembled form snapshots and exports hand out.
type Span struct {
	TraceID uint64 // the frame's trace identity, shared by the whole chain
	SpanID  uint64 // this span
	Parent  uint64 // the span this one is causally under; 0 for a root
	Kind    Kind
	Forced  bool   // recorded via the forced (control/escalation) ring
	Shard   int    // pool shard, or -1 for unsharded planes
	Device  string // owning device, when there is one
	Start   int64  // wall-clock start, Unix nanoseconds
	Dur     int64  // duration in nanoseconds
}

// devWords bounds the device ID retained per slot: 4 little-endian words,
// 32 bytes. Longer IDs are truncated — a flight recorder trades fidelity
// at the margin for a hot path with no allocation.
const devWords = 4

// slot is one fixed-size ring entry. Every field is atomic so concurrent
// writers and snapshot readers race benignly under -race: the seq field is
// a seqlock stamp — odd while a writer owns the slot, even when published
// — and a reader discards any slot whose stamp moved while it copied.
type slot struct {
	seq                 atomic.Uint64
	trace, span, parent atomic.Uint64
	// meta packs kind (bits 0–7), forced (bit 8), device length (bits
	// 16–23) and shard+1 (bits 32–63, so shard -1 is representable).
	meta       atomic.Uint64
	start, dur atomic.Uint64
	dev        [devWords]atomic.Uint64
}

// Ring is a lock-free bounded span buffer: writers claim slots from a
// monotone head counter and overwrite the oldest records forever, readers
// snapshot without stopping the writers. Safe for any number of concurrent
// writers and readers.
type Ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64
}

// NewRing creates a ring retaining capacity spans (rounded up to a power
// of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Written reports how many spans have ever been put into the ring.
func (r *Ring) Written() uint64 { return r.head.Load() }

// Evicted reports how many spans have been overwritten — every write past
// capacity laps exactly one older record, so no separate counter is
// needed. For the forced ring this is the overflow the CI soak asserts
// stays zero: an evicted control span is an unexplained escalation.
func (r *Ring) Evicted() uint64 {
	if h, n := r.head.Load(), uint64(len(r.slots)); h > n {
		return h - n
	}
	return 0
}

// put records one span. Two writers only ever collide on a slot when one
// stalls for a full ring revolution; the seqlock stamp makes even that
// race produce a discarded read, not a torn span handed to a caller.
func (r *Ring) put(s Span) {
	sl := &r.slots[(r.head.Add(1)-1)&r.mask]
	sl.seq.Add(1) // odd: writing
	sl.trace.Store(s.TraceID)
	sl.span.Store(s.SpanID)
	sl.parent.Store(s.Parent)
	id := s.Device
	if len(id) > devWords*8 {
		id = id[:devWords*8]
	}
	var b [devWords * 8]byte
	copy(b[:], id)
	for i := 0; i < devWords; i++ {
		sl.dev[i].Store(binary.LittleEndian.Uint64(b[i*8:]))
	}
	meta := uint64(s.Kind) | uint64(len(id))<<16 | uint64(uint32(s.Shard+1))<<32
	if s.Forced {
		meta |= 1 << 8
	}
	sl.meta.Store(meta)
	sl.start.Store(uint64(s.Start))
	sl.dur.Store(uint64(s.Dur))
	sl.seq.Add(1) // even: published
}

// Snapshot appends the ring's retained spans to dst, oldest first, and
// returns the extended slice. Recording continues concurrently; slots
// caught mid-write are skipped rather than returned torn.
func (r *Ring) Snapshot(dst []Span) []Span {
	head := r.head.Load()
	lo := uint64(0)
	if n := uint64(len(r.slots)); head > n {
		lo = head - n
	}
	for i := lo; i < head; i++ {
		sl := &r.slots[i&r.mask]
		for try := 0; try < 4; try++ {
			s1 := sl.seq.Load()
			if s1&1 != 0 {
				continue // a writer owns the slot right now
			}
			var s Span
			s.TraceID = sl.trace.Load()
			s.SpanID = sl.span.Load()
			s.Parent = sl.parent.Load()
			meta := sl.meta.Load()
			s.Start = int64(sl.start.Load())
			s.Dur = int64(sl.dur.Load())
			var b [devWords * 8]byte
			for j := 0; j < devWords; j++ {
				binary.LittleEndian.PutUint64(b[j*8:], sl.dev[j].Load())
			}
			if sl.seq.Load() != s1 {
				continue // overwritten while copying; retry or skip
			}
			s.Kind = Kind(meta & 0xff)
			s.Forced = meta&(1<<8) != 0
			s.Device = string(b[:(meta>>16)&0xff])
			s.Shard = int(uint32(meta>>32)) - 1
			if s.TraceID != 0 {
				dst = append(dst, s)
			}
			break
		}
	}
	return dst
}

// Context is a live trace identity flowing through one frame's lifecycle:
// Trace names the chain, Span the stage new spans should parent under.
// The zero Context means "not sampled" and makes every tracer call a
// no-op, so hot paths thread it unconditionally.
type Context struct {
	Trace uint64
	Span  uint64
}

// Live reports whether the context belongs to a sampled (or forced) trace.
func (c Context) Live() bool { return c.Trace != 0 }

// Wire converts the context for transmission; nil when not sampled, so it
// attaches to a wire.Message unconditionally.
func (c Context) Wire() *wire.TraceContext {
	if !c.Live() {
		return nil
	}
	return &wire.TraceContext{TraceID: c.Trace, Parent: c.Span}
}

// FromWire adopts a received wire context (nil-safe).
func FromWire(tc *wire.TraceContext) Context {
	if tc == nil {
		return Context{}
	}
	return Context{Trace: tc.TraceID, Span: tc.Parent}
}

// Defaults for Options.
const (
	DefaultCapacity = 4096
	DefaultSampleN  = 128
)

// Options configures a Tracer.
type Options struct {
	// Shards is the pool shard count; one sampled ring per shard. Minimum 1.
	Shards int
	// Capacity is the per-ring span retention (default DefaultCapacity).
	Capacity int
	// SampleN samples one in N observation frames at ingest (default
	// DefaultSampleN; 1 traces every frame). ≤ 0 disables sampling —
	// forced control/escalation traces still record, which is what keeps
	// the plane "always on".
	SampleN int
	// Seed perturbs the ID sequence; 0 seeds from the clock. Tests pin it
	// for reproducible IDs.
	Seed uint64
}

// Tracer is the per-daemon tracing plane: a sampling gate, a fleet-unique
// ID source, one sampled ring per pool shard and one forced ring for the
// control/escalation traffic that must never be lost. All methods are
// safe for concurrent use and all are no-ops on a nil *Tracer, so every
// subsystem takes an optional Tracer without guarding call sites.
type Tracer struct {
	sampleN uint64
	seed    uint64
	ctr     atomic.Uint64
	ids     atomic.Uint64
	rings   []*Ring
	forced  *Ring
}

// New creates a Tracer per Options.
func New(opts Options) *Tracer {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t := &Tracer{seed: seed, forced: NewRing(opts.Capacity)}
	if opts.SampleN > 0 {
		t.sampleN = uint64(opts.SampleN)
	}
	t.rings = make([]*Ring, opts.Shards)
	for i := range t.rings {
		t.rings[i] = NewRing(opts.Capacity)
	}
	return t
}

// newID derives the next fleet-unique nonzero ID (splitmix64 over a
// seeded counter: no coordination, no duplicates within a process, and
// two daemons seeded from their own clocks will not collide in practice).
func (t *Tracer) newID() uint64 {
	x := t.seed + t.ids.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Sample is the ingest gate: every call counts one admitted observation
// frame, and one in SampleN returns a fresh root context. The zero
// Context it usually returns disarms every downstream tracer call.
func (t *Tracer) Sample() Context {
	if t == nil || t.sampleN == 0 {
		return Context{}
	}
	if t.ctr.Add(1)%t.sampleN != 0 {
		return Context{}
	}
	return Context{Trace: t.newID()}
}

// Force returns a fresh root context unconditionally — the entry point
// for control and escalation traffic, which is always traced.
func (t *Tracer) Force() Context {
	if t == nil {
		return Context{}
	}
	return Context{Trace: t.newID()}
}

// Span records one completed stage under ctx and returns the child
// context subsequent stages should record under. A dead context (or nil
// tracer) records nothing and passes through. Forced spans land in the
// dedicated forced ring regardless of shard.
func (t *Tracer) Span(ctx Context, kind Kind, shard int, device string, start time.Time, d time.Duration, forced bool) Context {
	if t == nil || !ctx.Live() {
		return ctx
	}
	id := t.newID()
	s := Span{TraceID: ctx.Trace, SpanID: id, Parent: ctx.Span, Kind: kind,
		Forced: forced, Shard: shard, Device: device,
		Start: start.UnixNano(), Dur: int64(d)}
	ring := t.forced
	if !forced {
		ring = t.rings[0]
		if shard >= 0 && shard < len(t.rings) {
			ring = t.rings[shard]
		}
	}
	ring.put(s)
	return Context{Trace: ctx.Trace, Span: id}
}

// Snapshot returns every retained span across all rings, ordered by start
// time (ties by span ID, so the order is stable).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, r := range t.rings {
		out = r.Snapshot(out)
	}
	out = t.forced.Snapshot(out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Trace returns the retained spans of one trace ID, in start order — the
// span chain an exemplar resolves to.
func (t *Tracer) Trace(id uint64) []Span {
	all := t.Snapshot()
	out := all[:0]
	for _, s := range all {
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// ForcedOverflow reports how many forced (control/escalation) spans have
// been evicted before anything read them — the CI soak fails if this ever
// leaves zero, because an evicted forced span is a restart the plane can
// no longer explain.
func (t *Tracer) ForcedOverflow() uint64 {
	if t == nil {
		return 0
	}
	return t.forced.Evicted()
}

// Written reports the total spans recorded across all rings.
func (t *Tracer) Written() uint64 {
	if t == nil {
		return 0
	}
	n := t.forced.Written()
	for _, r := range t.rings {
		n += r.Written()
	}
	return n
}
