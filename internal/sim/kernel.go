// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher-level substrates (the SoC resource model, the TV simulator, the
// recovery framework, ...) run on this kernel so that every experiment in the
// repository is reproducible: given the same seed and the same schedule of
// injected faults, a run produces bit-identical traces. Time is virtual and
// only advances when the event queue is popped; wall-clock time never leaks
// into simulation results.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is a virtual time stamp in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. The zero value is inert.
type Event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among events at the same instant
	fn     func()
	index  int // heap index, -1 when not queued
	dead   bool
	kernel *Kernel
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (e *Event) Cancel() bool {
	if e == nil || e.dead || e.index < 0 {
		return false
	}
	heap.Remove(&e.kernel.pq, e.index)
	e.dead = true
	return true
}

// Kernel is a discrete-event simulator. It is not safe for concurrent use;
// drive it from a single goroutine.
type Kernel struct {
	now     Time
	seq     uint64
	pq      eventHeap
	seed    int64
	rng     *rand.Rand // built from seed by the first Rand call
	stopped bool
}

// NewKernel returns a kernel with virtual time 0 and a deterministic RNG
// seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. The source is
// seeded on the first call: a math/rand source is 4.9 KB of state and several
// microseconds of seeding, which a fleet of monitors that never draw (the
// light monitor is deterministic without it) should not pay per device. The
// stream is the one rand.New(rand.NewSource(seed)) yields.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// Schedule queues fn to run after delay. A negative delay is treated as zero
// (run at the current instant, after already-queued events for that instant).
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at. Times in the past
// are clamped to now.
func (k *Kernel) ScheduleAt(at Time, fn func()) *Event {
	if at < k.now {
		at = k.now
	}
	e := &Event{at: at, seq: k.seq, fn: fn, kernel: k}
	k.seq++
	heap.Push(&k.pq, e)
	return e
}

// Every schedules fn to run every period, starting after the first period.
// The returned event is the currently-pending occurrence; cancelling it stops
// the series. fn may call Cancel on the returned *Event via closure to stop.
func (k *Kernel) Every(period Time, fn func()) *Repeater {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	r := &Repeater{k: k, period: period, fn: fn}
	r.arm()
	return r
}

// Repeater is a periodic event series created by Every.
type Repeater struct {
	k       *Kernel
	period  Time
	fn      func()
	ev      *Event
	stopped bool
}

func (r *Repeater) arm() {
	r.ev = r.k.Schedule(r.period, func() {
		if r.stopped {
			return
		}
		r.fn()
		if !r.stopped {
			r.arm()
		}
	})
}

// Stop cancels the series.
func (r *Repeater) Stop() {
	r.stopped = true
	if r.ev != nil {
		r.ev.Cancel()
	}
}

// Step executes the next queued event, advancing virtual time. It reports
// false when the queue is empty or the kernel has been stopped.
func (k *Kernel) Step() bool {
	if k.stopped || len(k.pq) == 0 {
		return false
	}
	e := heap.Pop(&k.pq).(*Event)
	e.dead = true
	k.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue is empty, the kernel is stopped, or
// virtual time would exceed until. Events scheduled exactly at until still
// run. It returns the time at which the run settled.
func (k *Kernel) Run(until Time) Time {
	for !k.stopped && len(k.pq) > 0 && k.pq[0].at <= until {
		k.Step()
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return k.now
}

// Jump re-anchors the kernel at absolute virtual time at without firing
// anything: every pending event is shifted forward by the same delta, so
// relative phases (repeater periods, armed timers) are preserved. Jumping
// backwards or to the current instant is a no-op. Checkpoint restore uses
// this to place a freshly built kernel at the capture time before replaying
// the post-checkpoint delta.
func (k *Kernel) Jump(at Time) {
	if at <= k.now {
		return
	}
	d := at - k.now
	k.now = at
	// A uniform shift preserves the (at, seq) heap order, so the slice can
	// be rewritten in place without re-heapifying.
	for _, e := range k.pq {
		e.at += d
	}
}

// RunAll executes events until the queue is empty or the kernel is stopped.
func (k *Kernel) RunAll() Time {
	for k.Step() {
	}
	return k.now
}

// eventHeap orders events by (time, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
