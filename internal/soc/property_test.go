package soc

import (
	"testing"
	"testing/quick"

	"trader/internal/sim"
)

// Property: no job is ever lost — every aperiodic release completes once
// the kernel drains, for any release pattern and priority assignment.
func TestPropertyNoLostJobs(t *testing.T) {
	f := func(pattern []uint16) bool {
		k := sim.NewKernel(5)
		cpu := NewCPU(k, "cpu0")
		tasks := []*Task{
			{Name: "a", WCET: 7, Priority: 0},
			{Name: "b", WCET: 13, Priority: 1},
			{Name: "c", WCET: 3, Priority: 2},
		}
		for _, task := range tasks {
			cpu.Attach(task)
		}
		n := 0
		for i, p := range pattern {
			if i >= 100 {
				break
			}
			task := tasks[int(p)%3]
			at := sim.Time(p % 500)
			k.ScheduleAt(at, func() { cpu.Release(task) })
			n++
		}
		k.RunAll()
		st := cpu.Stats()
		return st.JobsReleased == uint64(n) && st.JobsCompleted == uint64(n) && cpu.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion order respects priority for jobs released at the
// same instant — a strictly higher-priority job released together with a
// lower one always finishes first.
func TestPropertyPriorityOrdering(t *testing.T) {
	f := func(seedRaw uint8) bool {
		k := sim.NewKernel(int64(seedRaw))
		cpu := NewCPU(k, "cpu0")
		hi := &Task{Name: "hi", WCET: 5, Priority: 0}
		lo := &Task{Name: "lo", WCET: 5, Priority: 9}
		cpu.Attach(hi)
		cpu.Attach(lo)
		var order []string
		hi.OnComplete = func(sim.Time) { order = append(order, "hi") }
		lo.OnComplete = func(sim.Time) { order = append(order, "lo") }
		for i := 0; i < 5; i++ {
			at := sim.Time(i * 20)
			k.ScheduleAt(at, func() {
				cpu.Release(lo)
				cpu.Release(hi)
			})
		}
		k.RunAll()
		if len(order) != 10 {
			return false
		}
		// Pairwise: each (hi, lo) batch completes hi first.
		for i := 0; i < len(order); i += 2 {
			if order[i] != "hi" || order[i+1] != "lo" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilisation never exceeds 1 and response times are at least the
// demand, for any periodic task set.
func TestPropertySchedulerSanity(t *testing.T) {
	f := func(periodsRaw [3]uint8) bool {
		k := sim.NewKernel(9)
		cpu := NewCPU(k, "cpu0")
		for i, pr := range periodsRaw {
			period := sim.Time(pr%50) + 10
			wcet := period / 4
			cpu.Attach(&Task{
				Name: string(rune('a' + i)), Period: period, WCET: wcet, Priority: i,
			})
		}
		k.Run(5000)
		return cpu.Stats().Response.Min() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
