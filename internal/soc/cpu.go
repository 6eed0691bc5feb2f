// Package soc models the system-on-chip resource substrate of a high-end TV
// as described in the paper's problem statement: "a TV is designed as a
// system-on-chip with multiple processors, various types of memory, and
// dedicated hardware accelerators". It provides:
//
//   - preemptive fixed-priority CPUs with periodic tasks and deadline
//     accounting (cpu.go), and
//   - a memory controller with pluggable arbiters, including the run-time
//     adaptive arbiter investigated by NXP Research in Sect. 4.5 (memory.go).
//
// The model runs entirely on the deterministic sim kernel; overload, deadline
// misses and contention are therefore reproducible, which the stress-testing
// (Sect. 4.7) and load-balancing (Sect. 4.5) experiments rely on.
package soc

import (
	"fmt"
	"sort"

	"trader/internal/sim"
)

// Task describes work to schedule on a CPU. Periodic tasks (Period > 0)
// release a job every period; aperiodic tasks release jobs via Release.
type Task struct {
	Name     string
	Period   sim.Time // 0 for aperiodic
	WCET     sim.Time // execution demand per job
	Deadline sim.Time // relative deadline; 0 means Period (or WCET*2 for aperiodic)
	Priority int      // lower value = higher priority
	// Migratable marks the task as movable between CPUs (Sect. 4.5 IMEC
	// image-processing task migration).
	Migratable bool
	// OnComplete, when non-nil, runs when a job of this task finishes. The
	// argument is the job's response time.
	OnComplete func(response sim.Time)
	// OnMiss, when non-nil, runs when a job misses its deadline.
	OnMiss func(lateness sim.Time)

	cpu      *CPU
	repeater *sim.Repeater
	// jobSeq numbers jobs for deterministic tie-breaks.
	jobSeq uint64
}

// EffectiveDeadline returns the task's relative deadline.
func (t *Task) EffectiveDeadline() sim.Time {
	if t.Deadline > 0 {
		return t.Deadline
	}
	if t.Period > 0 {
		return t.Period
	}
	return 2 * t.WCET
}

// job is one released instance of a task.
type job struct {
	task      *Task
	remaining sim.Time
	release   sim.Time
	deadline  sim.Time // absolute
	seq       uint64
	demand    sim.Time
}

// CPUStats aggregates scheduler metrics.
type CPUStats struct {
	JobsReleased   uint64
	JobsCompleted  uint64
	DeadlineMisses uint64
	Preemptions    uint64
	// Response collects job response times (seconds).
	Response sim.Series
}

// CPU is a preemptive fixed-priority processor.
type CPU struct {
	Name   string
	kernel *sim.Kernel

	ready   []*job // sorted: highest priority first
	running *job
	runFrom sim.Time   // when the running job last got the CPU
	done    *sim.Event // completion event of the running job

	tasks map[string]*Task
	stats CPUStats

	// Speed scales execution: demand is divided by Speed. 1.0 = nominal.
	Speed float64
}

// NewCPU creates a processor on the kernel.
func NewCPU(kernel *sim.Kernel, name string) *CPU {
	return &CPU{Name: name, kernel: kernel, tasks: make(map[string]*Task), Speed: 1.0}
}

// Stats returns a snapshot of scheduler metrics.
func (c *CPU) Stats() *CPUStats { return &c.stats }

// Tasks returns the attached tasks sorted by name.
func (c *CPU) Tasks() []*Task {
	out := make([]*Task, 0, len(c.tasks))
	for _, t := range c.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Attach adds a task to this CPU and starts its periodic releases.
// It panics if the task is already attached somewhere.
func (c *CPU) Attach(t *Task) {
	if t.cpu != nil {
		panic(fmt.Sprintf("soc: task %q already attached to CPU %q", t.Name, t.cpu.Name))
	}
	if _, dup := c.tasks[t.Name]; dup {
		panic(fmt.Sprintf("soc: CPU %q already has a task %q", c.Name, t.Name))
	}
	t.cpu = c
	c.tasks[t.Name] = t
	if t.Period > 0 {
		// First release immediately, then every period.
		c.kernel.Schedule(0, func() {
			if t.cpu == c {
				c.release(t, t.WCET)
			}
		})
		t.repeater = c.kernel.Every(t.Period, func() {
			if t.cpu == c {
				c.release(t, t.WCET)
			}
		})
	}
}

// Detach removes the task: pending jobs of the task are discarded (as when a
// component is killed for recovery or migrated).
func (c *CPU) Detach(t *Task) {
	if t.cpu != c {
		return
	}
	if t.repeater != nil {
		t.repeater.Stop()
		t.repeater = nil
	}
	delete(c.tasks, t.Name)
	t.cpu = nil
	// Drop queued jobs of t.
	kept := c.ready[:0]
	for _, j := range c.ready {
		if j.task != t {
			kept = append(kept, j)
		}
	}
	c.ready = kept
	if c.running != nil && c.running.task == t {
		c.stopRunning(false)
		c.dispatch()
	}
}

// Migrate moves a migratable task to another CPU, dropping in-flight work
// (the paper's IMEC demonstrator migrates an image-processing task between
// processors; in-progress frame work is restarted on the target).
func (c *CPU) Migrate(t *Task, to *CPU) error {
	if !t.Migratable {
		return fmt.Errorf("soc: task %q is not migratable", t.Name)
	}
	if t.cpu != c {
		return fmt.Errorf("soc: task %q is not on CPU %q", t.Name, c.Name)
	}
	c.Detach(t)
	to.Attach(t)
	return nil
}

func (c *CPU) release(t *Task, demand sim.Time) {
	if demand <= 0 {
		demand = 1
	}
	t.jobSeq++
	now := c.kernel.Now()
	j := &job{
		task: t, remaining: demand, demand: demand,
		release: now, deadline: now + t.EffectiveDeadline(), seq: t.jobSeq,
	}
	c.stats.JobsReleased++
	c.enqueue(j)
	c.dispatch()
}

func (c *CPU) enqueue(j *job) {
	c.ready = append(c.ready, j)
	sort.SliceStable(c.ready, func(a, b int) bool {
		ja, jb := c.ready[a], c.ready[b]
		if ja.task.Priority != jb.task.Priority {
			return ja.task.Priority < jb.task.Priority
		}
		if ja.release != jb.release {
			return ja.release < jb.release
		}
		return ja.seq < jb.seq
	})
}

// stopRunning halts the current job; if requeue, the job keeps its progress
// and returns to the ready queue.
func (c *CPU) stopRunning(requeue bool) {
	if c.running == nil {
		return
	}
	elapsed := c.kernel.Now() - c.runFrom
	execd := sim.Time(float64(elapsed) * c.Speed)
	if execd > c.running.remaining {
		execd = c.running.remaining
	}
	c.running.remaining -= execd
	if c.done != nil {
		c.done.Cancel()
		c.done = nil
	}
	if requeue {
		c.enqueue(c.running)
	}
	c.running = nil
}

// dispatch gives the CPU to the highest-priority ready job, preempting if
// necessary.
func (c *CPU) dispatch() {
	if len(c.ready) == 0 {
		return
	}
	top := c.ready[0]
	if c.running != nil {
		if c.running.task.Priority <= top.task.Priority {
			return // current job has (equal or) higher priority; no preemption
		}
		c.stats.Preemptions++
		c.stopRunning(true)
		top = c.ready[0]
	}
	c.ready = c.ready[1:]
	c.running = top
	c.runFrom = c.kernel.Now()
	dur := sim.Time(float64(top.remaining) / c.Speed)
	if dur < 1 {
		dur = 1
	}
	c.done = c.kernel.Schedule(dur, func() { c.complete() })
}

func (c *CPU) complete() {
	j := c.running
	if j == nil {
		return
	}
	j.remaining = 0
	c.done = nil
	c.running = nil
	c.stats.JobsCompleted++
	resp := c.kernel.Now() - j.release
	c.stats.Response.Observe(resp.Seconds())
	if c.kernel.Now() > j.deadline {
		c.stats.DeadlineMisses++
		if j.task.OnMiss != nil {
			j.task.OnMiss(c.kernel.Now() - j.deadline)
		}
	}
	if j.task.OnComplete != nil {
		j.task.OnComplete(resp)
	}
	c.dispatch()
}

// Load returns the total utilisation demand of attached periodic tasks
// (sum WCET/Period), a static overload indicator.
func (c *CPU) Load() float64 {
	var u float64
	for _, t := range c.tasks {
		if t.Period > 0 {
			u += float64(t.WCET) / float64(t.Period)
		}
	}
	return u / c.Speed
}
