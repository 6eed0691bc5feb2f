// Package loadbal implements the load-balancing recovery of Sect. 4.5
// (IMEC): migrating a processing task from an overloaded processor to one
// with spare capacity, "which leads to improved image quality in case of
// overload situations (e.g., due to intensive error correction on a bad
// input signal)". The balancer polls CPU health (deadline-miss deltas and
// static load) and migrates migratable tasks when a CPU is overloaded and a
// better home exists.
package loadbal

import (
	"sort"

	"trader/internal/sim"
	"trader/internal/soc"
)

// Policy tunes the balancer.
type Policy struct {
	// CheckEvery is the polling period.
	CheckEvery sim.Time
	// MissesPerCheck triggers migration when a CPU accumulates at least
	// this many new deadline misses between checks (default 1).
	MissesPerCheck uint64
	// LoadMargin requires the target CPU's static load to be below the
	// source's by at least this much (default 0.2) to avoid ping-ponging.
	LoadMargin float64
}

func (p *Policy) fill() {
	if p.CheckEvery <= 0 {
		p.CheckEvery = 100 * sim.Millisecond
	}
	if p.MissesPerCheck == 0 {
		p.MissesPerCheck = 1
	}
	if p.LoadMargin == 0 {
		p.LoadMargin = 0.2
	}
}

// Migration records one balancing action.
type Migration struct {
	Task     string
	From, To string
	At       sim.Time
}

// Balancer watches a set of CPUs and migrates tasks.
type Balancer struct {
	kernel *sim.Kernel
	cpus   []*soc.CPU
	policy Policy
	rep    *sim.Repeater

	lastMisses map[string]uint64
	// Migrations lists actions taken.
	Migrations []Migration
	// Checks counts polls.
	Checks uint64
}

// New creates a balancer over the CPUs. Call Start to begin polling.
func New(kernel *sim.Kernel, cpus []*soc.CPU, policy Policy) *Balancer {
	policy.fill()
	return &Balancer{
		kernel: kernel, cpus: cpus, policy: policy,
		lastMisses: make(map[string]uint64),
	}
}

// Start begins periodic balancing.
func (b *Balancer) Start() {
	if b.rep != nil {
		return
	}
	for _, c := range b.cpus {
		b.lastMisses[c.Name] = c.Stats().DeadlineMisses
	}
	b.rep = b.kernel.Every(b.policy.CheckEvery, b.check)
}

func (b *Balancer) check() {
	b.Checks++
	type health struct {
		cpu       *soc.CPU
		newMisses uint64
		load      float64
	}
	hs := make([]health, 0, len(b.cpus))
	for _, c := range b.cpus {
		misses := c.Stats().DeadlineMisses
		hs = append(hs, health{cpu: c, newMisses: misses - b.lastMisses[c.Name], load: c.Load()})
		b.lastMisses[c.Name] = misses
	}
	// Consider the most troubled CPU first.
	sort.SliceStable(hs, func(i, j int) bool {
		if hs[i].newMisses != hs[j].newMisses {
			return hs[i].newMisses > hs[j].newMisses
		}
		return hs[i].load > hs[j].load
	})
	src := hs[0]
	if src.newMisses < b.policy.MissesPerCheck {
		return // nobody is suffering
	}
	// Pick the migratable task with the largest utilisation share.
	var task *soc.Task
	var taskU float64
	for _, t := range src.cpu.Tasks() {
		if !t.Migratable || t.Period <= 0 {
			continue
		}
		u := float64(t.WCET) / float64(t.Period)
		if task == nil || u > taskU {
			task, taskU = t, u
		}
	}
	if task == nil {
		return
	}
	// Find the least-loaded target with enough headroom.
	var dst *soc.CPU
	var dstLoad float64
	for _, h := range hs[1:] {
		if dst == nil || h.load < dstLoad {
			dst, dstLoad = h.cpu, h.load
		}
	}
	if dst == nil || dstLoad+taskU > 1.0 {
		return // no safe home
	}
	if src.load-dstLoad < b.policy.LoadMargin {
		return // not enough imbalance to justify the move
	}
	if err := src.cpu.Migrate(task, dst); err != nil {
		return
	}
	b.Migrations = append(b.Migrations, Migration{
		Task: task.Name, From: src.cpu.Name, To: dst.Name, At: b.kernel.Now(),
	})
}
