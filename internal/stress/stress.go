// Package stress implements the TASS stress-testing approach of Sect. 4.7:
// "artificially takes away shared resources, such as CPU or bus bandwidth,
// to simulate the occurrence of errors or the addition of an additional
// resource user". The CPU eater is the paper's concrete example — "a
// so-called CPU eater, which consumes CPU cycles at the application level in
// software, is already included in the current development software and can
// be activated by system testers".
package stress

import (
	"fmt"

	"trader/internal/sim"
	"trader/internal/soc"
)

// CPUEater consumes a configurable fraction of one CPU at a configurable
// priority. Activate/Deactivate can be toggled at run time, as system
// testers do.
type CPUEater struct {
	cpu    *soc.CPU
	task   *soc.Task
	active bool
}

// NewCPUEater builds an eater for the CPU consuming the given utilisation
// fraction (0..1) at the given priority (lower = more aggressive: it
// preempts the application).
func NewCPUEater(cpu *soc.CPU, fraction float64, priority int) *CPUEater {
	if fraction <= 0 || fraction >= 1 {
		panic(fmt.Sprintf("stress: eater fraction %v out of (0,1)", fraction))
	}
	const period = 10 * sim.Millisecond
	return &CPUEater{
		cpu: cpu,
		task: &soc.Task{
			Name:     fmt.Sprintf("cpu-eater-%s", cpu.Name),
			Period:   period,
			WCET:     sim.Time(float64(period) * fraction),
			Priority: priority,
		},
	}
}

// Activate attaches the eater task.
func (e *CPUEater) Activate() {
	if e.active {
		return
	}
	e.cpu.Attach(e.task)
	e.active = true
}

// Deactivate detaches the eater task.
func (e *CPUEater) Deactivate() {
	if !e.active {
		return
	}
	e.cpu.Detach(e.task)
	e.active = false
}
