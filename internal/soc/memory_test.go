package soc

import (
	"testing"
	"testing/quick"

	"trader/internal/sim"
)

func newMem(t *testing.T, arb Arbiter) (*sim.Kernel, *MemController) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewMemController(k, "ddr", 10, arb)
	m.Register(&Requestor{Name: "cpu", Priority: 0, LatencyTarget: 100})
	m.Register(&Requestor{Name: "gfx", Priority: 1, LatencyTarget: 100})
	m.Register(&Requestor{Name: "io", Priority: 2, LatencyTarget: 100})
	return k, m
}

func TestMemFixedPriority(t *testing.T) {
	k, m := newMem(t, FixedPriority{})
	var order []string
	for _, name := range []string{"io", "gfx", "cpu"} {
		name := name
		m.Request(name, func() { order = append(order, name) })
	}
	k.RunAll()
	// io starts first (port idle when it arrived); then cpu beats gfx.
	if order[0] != "io" || order[1] != "cpu" || order[2] != "gfx" {
		t.Fatalf("order = %v", order)
	}
}

func TestMemRoundRobin(t *testing.T) {
	k, m := newMem(t, &RoundRobin{})
	var order []string
	for i := 0; i < 2; i++ {
		for _, name := range []string{"cpu", "gfx", "io"} {
			name := name
			m.Request(name, func() { order = append(order, name) })
		}
	}
	k.RunAll()
	want := []string{"cpu", "gfx", "io", "cpu", "gfx", "io"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMemTDMAIsolation(t *testing.T) {
	k := sim.NewKernel(1)
	arb := &TDMA{Slots: []string{"cpu", "gfx"}, SlotLen: 10}
	m := NewMemController(k, "ddr", 10, arb)
	m.Register(&Requestor{Name: "cpu"})
	m.Register(&Requestor{Name: "gfx"})
	// Flood cpu; gfx must still be served in its slots.
	for i := 0; i < 10; i++ {
		m.Request("cpu", nil)
	}
	k.Run(15)
	m.Request("gfx", nil)
	k.Run(200)
	gfx := m.Requestor("gfx")
	if gfx.Served != 1 {
		t.Fatalf("gfx served %d, want 1", gfx.Served)
	}
	// gfx arrived at 15; its next slot starts at 30; service 10 → latency ≤ 35.
	if maxLat := gfx.Latency.Max(); maxLat > (35 * sim.Nanosecond).Seconds() {
		t.Fatalf("gfx latency %v too high under TDMA", maxLat)
	}
}

func TestMemTDMAIdleSlotAdvances(t *testing.T) {
	k := sim.NewKernel(1)
	arb := &TDMA{Slots: []string{"cpu", "gfx"}, SlotLen: 10}
	m := NewMemController(k, "ddr", 5, arb)
	m.Register(&Requestor{Name: "cpu"})
	m.Register(&Requestor{Name: "gfx"})
	// Only gfx has work, but at t=0 the slot belongs to cpu → wait to t=10.
	m.Request("gfx", nil)
	k.RunAll()
	if m.Requestor("gfx").Served != 1 {
		t.Fatal("gfx not served")
	}
	if k.Now() != 15 {
		t.Fatalf("served at %v, want completion at 15 (slot 10 + service 5)", k.Now())
	}
}

func TestMemAdaptiveBoostsStarved(t *testing.T) {
	// Under fixed priority, "io" (lowest priority) starves when cpu+gfx are
	// saturating. The adaptive arbiter must bound its latency.
	run := func(arb Arbiter) (served uint64, mean float64) {
		k := sim.NewKernel(1)
		m := NewMemController(k, "ddr", 10, arb)
		m.Register(&Requestor{Name: "cpu", Priority: 0, LatencyTarget: 50})
		m.Register(&Requestor{Name: "gfx", Priority: 1, LatencyTarget: 50})
		m.Register(&Requestor{Name: "io", Priority: 2, LatencyTarget: 50})
		// cpu and gfx keep the port at 100% (each re-requests on completion).
		var recpu, regfx func()
		recpu = func() { m.Request("cpu", recpu) }
		regfx = func() { m.Request("gfx", regfx) }
		m.Request("cpu", recpu)
		m.Request("gfx", regfx)
		// io requests periodically.
		k.Every(100, func() { m.Request("io", nil) })
		k.Run(10000)
		io := m.Requestor("io")
		return io.Served, io.Latency.Mean()
	}
	fixedServed, _ := run(FixedPriority{})
	adaptiveServed, adaptiveMean := run(Adaptive{})
	if fixedServed != 0 {
		t.Fatalf("fixed priority should starve io completely, served %d", fixedServed)
	}
	if adaptiveServed < 90 {
		t.Fatalf("adaptive served only %d io requests, want ≥ 90", adaptiveServed)
	}
	if adaptiveMean <= 0 || adaptiveMean > (100*sim.Nanosecond).Seconds() {
		t.Fatalf("adaptive io mean latency %v out of expected bound", adaptiveMean)
	}
}

func TestMemArbiterSwapAtRuntime(t *testing.T) {
	k, m := newMem(t, FixedPriority{})
	if m.ArbiterName() != "fixed-priority" {
		t.Fatal(m.ArbiterName())
	}
	m.SetArbiter(Adaptive{})
	if m.ArbiterName() != "adaptive" {
		t.Fatal(m.ArbiterName())
	}
	m.Request("cpu", nil)
	k.RunAll()
	if m.Requestor("cpu").Served != 1 {
		t.Fatal("request not served after arbiter swap")
	}
}

func TestMemUnknownRequestorPanics(t *testing.T) {
	_, m := newMem(t, FixedPriority{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Request("ghost", nil)
}

func TestMemDuplicateRequestorPanics(t *testing.T) {
	_, m := newMem(t, FixedPriority{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Register(&Requestor{Name: "cpu"})
}

// Property: with any request pattern, every request is eventually served
// under round-robin (work conservation + no loss).
func TestPropertyMemAllServed(t *testing.T) {
	f := func(pattern []uint8) bool {
		k := sim.NewKernel(3)
		m := NewMemController(k, "ddr", 7, &RoundRobin{})
		names := []string{"a", "b", "c"}
		for _, n := range names {
			m.Register(&Requestor{Name: n})
		}
		total := 0
		for i, p := range pattern {
			if i > 200 {
				break
			}
			name := names[int(p)%3]
			at := sim.Time(int(p) * 3)
			k.ScheduleAt(at, func() { m.Request(name, nil) })
			total++
		}
		k.RunAll()
		served := 0
		for _, r := range m.Requestors() {
			served += int(r.Served)
		}
		return served == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCPUScheduling(b *testing.B) {
	k := sim.NewKernel(1)
	cpu := NewCPU(k, "cpu0")
	cpu.Attach(&Task{Name: "a", Period: 10, WCET: 3, Priority: 1})
	cpu.Attach(&Task{Name: "b", Period: 25, WCET: 8, Priority: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(k.Now() + 1000)
	}
}

func BenchmarkMemArbitration(b *testing.B) {
	k := sim.NewKernel(1)
	m := NewMemController(k, "ddr", 10, Adaptive{})
	m.Register(&Requestor{Name: "cpu", LatencyTarget: 50})
	m.Register(&Requestor{Name: "gfx", LatencyTarget: 50})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Request("cpu", nil)
		m.Request("gfx", nil)
		k.RunAll()
	}
}
