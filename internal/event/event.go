// Package event defines the event records exchanged between a System Under
// Observation (SUO) and the awareness framework, plus a lightweight
// publish/subscribe bus used for in-process wiring.
//
// The record types mirror the interfaces of the awareness framework in the
// paper's Fig. 2: input events (IInputEvent), output events (IOutputEvent),
// and state/mode information (IEventInfo). Payloads are scalar values keyed
// by observable name so the Comparator can apply per-observable thresholds.
package event

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trader/internal/sim"
)

// Kind classifies an event record.
type Kind int

const (
	// Input is an external stimulus to the SUO (e.g. a remote-control key).
	Input Kind = iota
	// Output is an externally visible effect of the SUO (e.g. sound level).
	Output
	// State is an internal state/mode observation (e.g. component mode).
	State
	// Err is an error notification produced by a detector.
	Err
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case State:
		return "state"
	case Err:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is one observed scalar. Observables are numeric so deviation
// thresholds apply uniformly; discrete modes are encoded as integers and
// compared with threshold 0.
type Value struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// Event is one observation record.
type Event struct {
	Kind   Kind     `json:"kind"`
	Name   string   `json:"name"`             // event name, e.g. "key", "frame", "mode"
	Source string   `json:"source"`           // emitting component
	At     sim.Time `json:"at"`               // virtual time of emission
	Values []Value  `json:"values,omitempty"` // observable values carried
	Seq    uint64   `json:"seq"`              // per-source sequence number
}

// Get returns the named value and whether it is present.
func (e *Event) Get(name string) (float64, bool) {
	for _, v := range e.Values {
		if v.Name == name {
			return v.V, true
		}
	}
	return 0, false
}

// With returns a copy of the event with the named value set (replacing any
// existing value of that name).
func (e Event) With(name string, v float64) Event {
	vals := make([]Value, 0, len(e.Values)+1)
	replaced := false
	for _, ev := range e.Values {
		if ev.Name == name {
			vals = append(vals, Value{name, v})
			replaced = true
		} else {
			vals = append(vals, ev)
		}
	}
	if !replaced {
		vals = append(vals, Value{name, v})
	}
	e.Values = vals
	return e
}

// String renders a compact human-readable form.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s %s/%s", e.At, e.Kind, e.Source, e.Name)
	if len(e.Values) > 0 {
		vals := make([]string, len(e.Values))
		for i, v := range e.Values {
			vals[i] = fmt.Sprintf("%s=%g", v.Name, v.V)
		}
		sort.Strings(vals)
		fmt.Fprintf(&b, " {%s}", strings.Join(vals, " "))
	}
	return b.String()
}

// Handler consumes events.
type Handler func(Event)

// Bus is a synchronous publish/subscribe event bus. Subscribers receive
// events in subscription order; publishing from within a handler is allowed
// and is delivered depth-first.
//
// Bus is safe for concurrent use: Publish, Subscribe and Unsubscribe may be
// called from multiple goroutines (fleet shards share buses). The handler
// lists are copy-on-write — Publish snapshots them under a short critical
// section and delivers outside the lock, so handlers may freely subscribe,
// unsubscribe and publish re-entrantly without deadlocking. A handler
// removed concurrently with a Publish may still receive that in-flight
// event. Handlers themselves must tolerate concurrent invocation when
// publishers are concurrent.
type Bus struct {
	// Published counts total events published, for overhead accounting.
	// Updated atomically; concurrent readers should use PublishedCount.
	// First field so 64-bit atomic ops stay aligned on 32-bit platforms.
	Published uint64

	mu     sync.Mutex
	subs   map[string][]subscription
	all    []subscription
	nextID int
}

type subscription struct {
	id int
	h  Handler
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[string][]subscription)}
}

// Subscription identifies a subscription for cancellation. Unsubscribe is
// safe to call concurrently and at most one call takes effect.
type Subscription struct {
	bus  atomic.Pointer[Bus]
	id   int
	name string
}

// Subscribe registers h for events with the given name. An empty name
// subscribes to all events.
func (b *Bus) Subscribe(name string, h Handler) *Subscription {
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	s := subscription{id: id, h: h}
	if name == "" {
		b.all = append(b.all, s)
	} else {
		b.subs[name] = append(b.subs[name], s)
	}
	b.mu.Unlock()
	sub := &Subscription{id: id, name: name}
	sub.bus.Store(b)
	return sub
}

// Unsubscribe removes the subscription. It is a no-op if already removed.
func (s *Subscription) Unsubscribe() {
	if s == nil {
		return
	}
	b := s.bus.Swap(nil)
	if b == nil {
		return
	}
	// Build a fresh backing array (full-slice trick) so Publish snapshots
	// taken before the removal keep iterating their own storage safely.
	remove := func(list []subscription) []subscription {
		for i, sub := range list {
			if sub.id == s.id {
				return append(list[:i:i], list[i+1:]...)
			}
		}
		return list
	}
	b.mu.Lock()
	if s.name == "" {
		b.all = remove(b.all)
	} else {
		b.subs[s.name] = remove(b.subs[s.name])
	}
	b.mu.Unlock()
}

// Publish delivers e to name subscribers then to catch-all subscribers.
// Handler lists are snapshotted up front and delivery runs unlocked, so
// handlers may subscribe/unsubscribe/publish during delivery.
func (b *Bus) Publish(e Event) {
	atomic.AddUint64(&b.Published, 1)
	b.mu.Lock()
	named := b.subs[e.Name]
	all := b.all
	b.mu.Unlock()
	for _, s := range named {
		s.h(e)
	}
	for _, s := range all {
		s.h(e)
	}
}

// Log is a bounded in-memory event trace. When capacity is exceeded the
// oldest events are dropped (ring-buffer semantics), mirroring on-chip trace
// buffers.
type Log struct {
	cap     int
	buf     []Event
	start   int
	n       int
	Dropped uint64
}

// NewLog returns a trace log holding at most capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1
	}
	return &Log{cap: capacity, buf: make([]Event, capacity)}
}

// Append records an event, evicting the oldest if full.
func (l *Log) Append(e Event) {
	if l.n == l.cap {
		l.buf[l.start] = e
		l.start = (l.start + 1) % l.cap
		l.Dropped++
		return
	}
	l.buf[(l.start+l.n)%l.cap] = e
	l.n++
}

// Len returns the number of retained events.
func (l *Log) Len() int { return l.n }

// Snapshot returns retained events oldest-first.
func (l *Log) Snapshot() []Event {
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%l.cap]
	}
	return out
}

// Filter returns retained events matching the predicate, oldest-first.
func (l *Log) Filter(pred func(Event) bool) []Event {
	var out []Event
	for i := 0; i < l.n; i++ {
		e := l.buf[(l.start+i)%l.cap]
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}
