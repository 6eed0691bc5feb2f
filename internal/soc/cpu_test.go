package soc

import (
	"testing"

	"trader/internal/sim"
)

func TestPeriodicTaskRuns(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	var responses []sim.Time
	cpu.Attach(&Task{
		Name: "video", Period: 20 * sim.Millisecond, WCET: 5 * sim.Millisecond,
		OnComplete: func(r sim.Time) { responses = append(responses, r) },
	})
	k.Run(100 * sim.Millisecond)
	// Releases at 0,20,40,60,80,100 → 6 completions (the one at 100 finishes at 105 — not yet).
	if got := cpu.Stats().JobsCompleted; got != 5 {
		t.Fatalf("JobsCompleted = %d, want 5", got)
	}
	for _, r := range responses {
		if r != 5*sim.Millisecond {
			t.Fatalf("uncontended response = %v, want 5ms", r)
		}
	}
	if cpu.Stats().DeadlineMisses != 0 {
		t.Fatal("no deadline misses expected")
	}
}

func TestPreemption(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	lo := &Task{Name: "lo", WCET: 100, Priority: 10}
	hi := &Task{Name: "hi", WCET: 10, Priority: 1}
	cpu.Attach(lo)
	cpu.Attach(hi)
	var hiDone, loDone sim.Time
	lo.OnComplete = func(sim.Time) { loDone = k.Now() }
	hi.OnComplete = func(sim.Time) { hiDone = k.Now() }
	cpu.Release(lo)
	k.Run(50)
	cpu.Release(hi)
	k.RunAll()
	if hiDone != 60 {
		t.Fatalf("hi done at %v, want 60 (released 50 + WCET 10)", hiDone)
	}
	if loDone != 110 {
		t.Fatalf("lo done at %v, want 110 (100 exec + 10 preempted)", loDone)
	}
	if cpu.Stats().Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", cpu.Stats().Preemptions)
	}
}

func TestNoPreemptionByEqualPriority(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	a := &Task{Name: "a", WCET: 100, Priority: 5}
	b := &Task{Name: "b", WCET: 10, Priority: 5}
	cpu.Attach(a)
	cpu.Attach(b)
	var bDone sim.Time
	b.OnComplete = func(sim.Time) { bDone = k.Now() }
	cpu.Release(a)
	k.Run(10)
	cpu.Release(b)
	k.RunAll()
	if bDone != 110 {
		t.Fatalf("b done at %v, want 110 (waits for a)", bDone)
	}
	if cpu.Stats().Preemptions != 0 {
		t.Fatal("equal priority must not preempt")
	}
}

func TestDeadlineMissDetection(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	var misses int
	var lateness sim.Time
	// Demand exceeds period: guaranteed overload.
	cpu.Attach(&Task{
		Name: "over", Period: 10, WCET: 15,
		OnMiss: func(l sim.Time) { misses++; lateness = l },
	})
	k.Run(100)
	if misses == 0 {
		t.Fatal("overloaded task should miss deadlines")
	}
	if lateness <= 0 {
		t.Fatal("lateness should be positive")
	}
	if cpu.Stats().DeadlineMisses == 0 {
		t.Fatal("stats should count misses")
	}
}

func TestUtilisationAndLoad(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	cpu.Attach(&Task{Name: "half", Period: 100, WCET: 50})
	k.Run(1000)
	if l := cpu.Load(); l != 0.5 {
		t.Fatalf("Load = %v, want 0.5", l)
	}
}

func TestSpeedScalesExecution(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "fast")
	cpu.Speed = 2.0
	task := &Task{Name: "t", WCET: 100}
	cpu.Attach(task)
	var done sim.Time
	task.OnComplete = func(sim.Time) { done = k.Now() }
	cpu.Release(task)
	k.RunAll()
	if done != 50 {
		t.Fatalf("done at %v, want 50 on a 2x CPU", done)
	}
}

func TestDetachDropsQueuedJobs(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	a := &Task{Name: "a", WCET: 100, Priority: 1}
	b := &Task{Name: "b", WCET: 100, Priority: 2}
	cpu.Attach(a)
	cpu.Attach(b)
	cpu.Release(a)
	cpu.Release(b)
	k.Run(10)
	cpu.Detach(b)
	k.RunAll()
	if cpu.Stats().JobsCompleted != 1 {
		t.Fatalf("JobsCompleted = %d, want only a's job", cpu.Stats().JobsCompleted)
	}
	if len(cpu.Tasks()) != 1 || cpu.Tasks()[0].Name != "a" {
		t.Fatalf("Tasks = %v", cpu.Tasks())
	}
}

func TestDetachRunningJob(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	a := &Task{Name: "a", WCET: 100, Priority: 1}
	b := &Task{Name: "b", WCET: 30, Priority: 2}
	cpu.Attach(a)
	cpu.Attach(b)
	cpu.Release(a)
	cpu.Release(b)
	k.Run(10)
	cpu.Detach(a) // a is running; b should take over immediately
	var bDone sim.Time
	// OnComplete set after release still applies (same task pointer).
	b.OnComplete = func(sim.Time) { bDone = k.Now() }
	k.RunAll()
	if bDone != 40 {
		t.Fatalf("b done at %v, want 40 (10 wait + 30 exec)", bDone)
	}
	if cpu.Stats().JobsCompleted != 1 {
		t.Fatalf("JobsCompleted = %d, want 1", cpu.Stats().JobsCompleted)
	}
}

func TestMigration(t *testing.T) {
	k := sim.NewKernel(1)
	c0 := NewCPU(k, "cpu0")
	c1 := NewCPU(k, "cpu1")
	img := &Task{Name: "img", Period: 10, WCET: 8, Migratable: true}
	hog := &Task{Name: "hog", Period: 10, WCET: 5, Priority: -1}
	c0.Attach(img)
	c0.Attach(hog)
	k.Run(200)
	missesBefore := c0.Stats().DeadlineMisses
	if missesBefore == 0 {
		t.Fatal("c0 should be overloaded before migration")
	}
	if err := c0.Migrate(img, c1); err != nil {
		t.Fatal(err)
	}
	base0, base1 := c0.Stats().DeadlineMisses, c1.Stats().DeadlineMisses
	k.Run(400)
	if c1.Stats().DeadlineMisses != base1 {
		t.Fatalf("img should meet deadlines on idle cpu1, misses %d", c1.Stats().DeadlineMisses-base1)
	}
	if c0.Stats().DeadlineMisses != base0 {
		t.Fatal("hog alone should not miss on cpu0")
	}
	if c1.Stats().JobsCompleted == 0 {
		t.Fatal("img must run on cpu1 after migration")
	}
}

func TestMigrateErrors(t *testing.T) {
	k := sim.NewKernel(1)
	c0 := NewCPU(k, "cpu0")
	c1 := NewCPU(k, "cpu1")
	fixed := &Task{Name: "fixed", WCET: 10}
	c0.Attach(fixed)
	if err := c0.Migrate(fixed, c1); err == nil {
		t.Fatal("non-migratable task must not migrate")
	}
	mig := &Task{Name: "mig", WCET: 10, Migratable: true}
	c1.Attach(mig)
	if err := c0.Migrate(mig, c1); err == nil {
		t.Fatal("migrating from the wrong CPU must fail")
	}
}

func TestAttachPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c0 := NewCPU(k, "cpu0")
	c1 := NewCPU(k, "cpu1")
	task := &Task{Name: "t", WCET: 1}
	c0.Attach(task)
	defer func() {
		if recover() == nil {
			t.Fatal("double attach should panic")
		}
	}()
	c1.Attach(task)
}

func TestEffectiveDeadline(t *testing.T) {
	if d := (&Task{Deadline: 7, Period: 100, WCET: 3}).EffectiveDeadline(); d != 7 {
		t.Fatalf("explicit deadline: %v", d)
	}
	if d := (&Task{Period: 100, WCET: 3}).EffectiveDeadline(); d != 100 {
		t.Fatalf("period fallback: %v", d)
	}
	if d := (&Task{WCET: 3}).EffectiveDeadline(); d != 6 {
		t.Fatalf("aperiodic fallback: %v", d)
	}
}

func TestRateMonotonicSchedulability(t *testing.T) {
	// Two tasks under the RM bound must never miss.
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	cpu.Attach(&Task{Name: "t1", Period: 10 * sim.Millisecond, WCET: 3 * sim.Millisecond, Priority: 1})
	cpu.Attach(&Task{Name: "t2", Period: 25 * sim.Millisecond, WCET: 8 * sim.Millisecond, Priority: 2})
	k.Run(5 * sim.Second)
	if cpu.Stats().DeadlineMisses != 0 {
		t.Fatalf("schedulable set missed %d deadlines", cpu.Stats().DeadlineMisses)
	}
	if cpu.Stats().JobsCompleted < 600 {
		t.Fatalf("JobsCompleted = %d, want ≥ 600", cpu.Stats().JobsCompleted)
	}
}
