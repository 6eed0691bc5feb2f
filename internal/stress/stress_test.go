package stress

import (
	"testing"

	"trader/internal/sim"
	"trader/internal/soc"
	"trader/internal/tvsim"
)

func TestCPUEaterCausesMisses(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := soc.NewCPU(k, "cpu0")
	app := &soc.Task{Name: "app", Period: 10 * sim.Millisecond, WCET: 6 * sim.Millisecond, Priority: 5}
	cpu.Attach(app)
	k.Run(sim.Second)
	if cpu.Stats().DeadlineMisses != 0 {
		t.Fatal("app should be healthy without stress")
	}
	eater := NewCPUEater(cpu, 0.5, 0) // preempts the app
	eater.Activate()
	eater.Activate() // idempotent
	if !eater.active || eater.task.WCET != 5*sim.Millisecond {
		t.Fatal("eater state wrong")
	}
	k.Run(2 * sim.Second)
	if cpu.Stats().DeadlineMisses == 0 {
		t.Fatal("eater should push the app over its deadlines")
	}
	eater.Deactivate()
	eater.Deactivate() // idempotent
	// The backlog built up during stress drains first; then the app is
	// healthy again.
	k.Run(k.Now() + sim.Second)
	base := cpu.Stats().DeadlineMisses
	k.Run(k.Now() + 2*sim.Second)
	if cpu.Stats().DeadlineMisses != base {
		t.Fatal("misses should stop once the eater is off and the backlog drained")
	}
}

func TestCPUEaterFractionValidation(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := soc.NewCPU(k, "cpu0")
	for _, f := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fraction %v should panic", f)
				}
			}()
			NewCPUEater(cpu, f, 0)
		}()
	}
}

// E9 shape: the CPU eater on the TV reveals how the fault-tolerant streaming
// behaves under overload (frame quality degrades gracefully rather than the
// whole TV dying).
func TestTVUnderCPUEater(t *testing.T) {
	k := sim.NewKernel(9)
	tv := tvsim.New(k, tvsim.Config{})
	tv.PressKey(tvsim.KeyPower)
	k.Run(sim.Second)
	missesBefore := tv.FrameMisses()
	eater := NewCPUEater(tv.CPUs()[0], 0.6, 0)
	eater.Activate()
	k.Run(3 * sim.Second)
	if tv.FrameMisses() == missesBefore {
		t.Fatal("eater should cause frame misses")
	}
	// The TV keeps running: keys still work under stress.
	tv.PressKey(tvsim.KeyVolUp)
	if tv.Snapshot()["volume"] != 25 {
		t.Fatal("control path should survive stress")
	}
	eater.Deactivate()
}
