package soc

import (
	"fmt"
	"sort"

	"trader/internal/sim"
)

// MemController models a memory port shared by several requestors (CPUs,
// accelerators, display refresh). Each request occupies the port for
// ServiceTime; a pluggable Arbiter picks which requestor is served next.
// NXP Research's Sect. 4.5 line of work — "make memory arbitration more
// flexible such that it can be adapted at run-time to deal with problems
// concerning memory access" — corresponds to the Adaptive arbiter.
type MemController struct {
	Name        string
	kernel      *sim.Kernel
	ServiceTime sim.Time
	arbiter     Arbiter

	order      []string // registration order, for deterministic iteration
	requestors map[string]*Requestor
	busyNow    bool
}

// Requestor is one client of the memory port.
type Requestor struct {
	Name string
	// Priority orders fixed-priority arbitration (lower = more important).
	Priority int
	// LatencyTarget is the acceptable per-request latency used by the
	// adaptive arbiter.
	LatencyTarget sim.Time

	queue []memReq
	// Served counts completed requests.
	Served uint64
	// Latency collects per-request latency in seconds.
	Latency sim.Series
	// ewma tracks smoothed latency (virtual ns) for adaptation.
	ewma float64
}

type memReq struct {
	enqueued sim.Time
	done     func()
}

// Arbiter picks the next requestor to serve.
type Arbiter interface {
	// Pick returns the name of a requestor with pending work, or "" to idle
	// until wake (then pump retries at the returned wake time).
	Pick(m *MemController) (name string, wake sim.Time)
	Name() string
}

// NewMemController creates a controller. serviceTime is the port occupancy
// per request.
func NewMemController(kernel *sim.Kernel, name string, serviceTime sim.Time, arb Arbiter) *MemController {
	if serviceTime <= 0 {
		panic("soc: memory service time must be positive")
	}
	return &MemController{
		Name: name, kernel: kernel, ServiceTime: serviceTime, arbiter: arb,
		requestors: make(map[string]*Requestor),
	}
}

// Register adds a requestor.
func (m *MemController) Register(r *Requestor) {
	if _, dup := m.requestors[r.Name]; dup {
		panic(fmt.Sprintf("soc: duplicate requestor %q", r.Name))
	}
	m.requestors[r.Name] = r
	m.order = append(m.order, r.Name)
}

// Requestor returns the named requestor, or nil.
func (m *MemController) Requestor(name string) *Requestor { return m.requestors[name] }

// Request enqueues a memory request for the named requestor; done (may be
// nil) runs at completion.
func (m *MemController) Request(requestor string, done func()) {
	r, ok := m.requestors[requestor]
	if !ok {
		panic(fmt.Sprintf("soc: unknown requestor %q", requestor))
	}
	r.queue = append(r.queue, memReq{enqueued: m.kernel.Now(), done: done})
	m.pump()
}

func (m *MemController) pump() {
	if m.busyNow {
		return
	}
	name, wake := m.arbiter.Pick(m)
	if name == "" {
		// Re-arm only when work is actually waiting (e.g. TDMA idling until
		// the owner's slot); otherwise the port sleeps until Request.
		if wake > m.kernel.Now() && len(m.pendingNames()) > 0 {
			m.kernel.ScheduleAt(wake, func() { m.pump() })
		}
		return
	}
	r := m.requestors[name]
	if r == nil || len(r.queue) == 0 {
		return
	}
	req := r.queue[0]
	r.queue = r.queue[1:]
	m.busyNow = true
	m.kernel.Schedule(m.ServiceTime, func() {
		lat := m.kernel.Now() - req.enqueued
		r.Served++
		r.Latency.Observe(lat.Seconds())
		const alpha = 0.2
		r.ewma = alpha*float64(lat) + (1-alpha)*r.ewma
		m.busyNow = false
		if req.done != nil {
			req.done()
		}
		m.pump()
	})
}

// pendingNames returns requestors with queued work, in registration order.
func (m *MemController) pendingNames() []string {
	var out []string
	for _, n := range m.order {
		if len(m.requestors[n].queue) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// FixedPriority serves the pending requestor with the lowest Priority value.
type FixedPriority struct{}

// Name implements Arbiter.
func (FixedPriority) Name() string { return "fixed-priority" }

// Pick implements Arbiter.
func (FixedPriority) Pick(m *MemController) (string, sim.Time) {
	pend := m.pendingNames()
	if len(pend) == 0 {
		return "", 0
	}
	sort.SliceStable(pend, func(i, j int) bool {
		return m.requestors[pend[i]].Priority < m.requestors[pend[j]].Priority
	})
	return pend[0], 0
}

// RoundRobin cycles through requestors in registration order.
type RoundRobin struct{ last int }

// Name implements Arbiter.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Arbiter.
func (rr *RoundRobin) Pick(m *MemController) (string, sim.Time) {
	n := len(m.order)
	for i := 1; i <= n; i++ {
		idx := (rr.last + i) % n
		name := m.order[idx]
		if len(m.requestors[name].queue) > 0 {
			rr.last = idx
			return name, 0
		}
	}
	return "", 0
}

// Adaptive is the run-time flexible arbiter: it serves the pending requestor
// with the worst starvation (smoothed latency over target), so a requestor
// suffering memory-access problems is boosted automatically.
type Adaptive struct{}

// Name implements Arbiter.
func (Adaptive) Name() string { return "adaptive" }

// Pick implements Arbiter.
func (Adaptive) Pick(m *MemController) (string, sim.Time) {
	pend := m.pendingNames()
	if len(pend) == 0 {
		return "", 0
	}
	// Effective starvation blends smoothed history with the age of the
	// oldest waiting request, so a requestor that has never been served
	// (ewma 0) still accumulates urgency while it waits.
	score := func(name string) float64 {
		r := m.requestors[name]
		wait := float64(m.kernel.Now() - r.queue[0].enqueued)
		s := r.ewma
		if wait > s {
			s = wait
		}
		if r.LatencyTarget > 0 {
			return s / float64(r.LatencyTarget)
		}
		return s
	}
	best := pend[0]
	bestS := score(best)
	for _, n := range pend[1:] {
		if s := score(n); s > bestS {
			best, bestS = n, s
		}
	}
	return best, 0
}
