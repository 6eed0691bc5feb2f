package recovery

import (
	"testing"

	"trader/internal/sim"
)

func twoUnits(t *testing.T) (*sim.Kernel, *Manager, *[]string) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewManager(k)
	var trace []string
	add := func(name string, lat sim.Time, deps ...string) {
		m.AddUnit(&Unit{
			Name:           name,
			RestartLatency: lat,
			DependsOn:      deps,
			OnKill:         func() { trace = append(trace, "kill:"+name) },
			OnRestart:      func() { trace = append(trace, "restart:"+name) },
		})
	}
	add("txt-acq", 50)
	add("txt-disp", 30, "txt-acq")
	add("video", 100)
	return k, m, &trace
}

func TestRecoverUnitOnly(t *testing.T) {
	k, m, trace := twoUnits(t)
	if err := m.Recover("txt-acq", UnitOnly); err != nil {
		t.Fatal(err)
	}
	if m.Unit("txt-acq").State() != Restarting {
		t.Fatal("unit should be restarting")
	}
	if m.Unit("txt-disp").State() != Running {
		t.Fatal("UnitOnly must not touch dependents")
	}
	k.Run(50)
	if m.Unit("txt-acq").State() != Running {
		t.Fatal("unit should be back")
	}
	want := []string{"kill:txt-acq", "restart:txt-acq"}
	if len(*trace) != 2 || (*trace)[0] != want[0] || (*trace)[1] != want[1] {
		t.Fatalf("trace = %v", *trace)
	}
	if m.Unit("txt-acq").Recoveries != 1 || m.Unit("txt-acq").Downtime != 50 {
		t.Fatalf("unit stats: %d recoveries, downtime %v",
			m.Unit("txt-acq").Recoveries, m.Unit("txt-acq").Downtime)
	}
	if m.RecoveriesCompleted != 1 {
		t.Fatal("manager stats")
	}
}

func TestRecoverSubtreeTakesDependents(t *testing.T) {
	k, m, trace := twoUnits(t)
	if err := m.Recover("txt-acq", Subtree); err != nil {
		t.Fatal(err)
	}
	if m.Unit("txt-disp").State() != Restarting {
		t.Fatal("dependent should restart too")
	}
	if m.Unit("video").State() != Running {
		t.Fatal("unrelated unit must keep running")
	}
	k.RunAll()
	kills := 0
	for _, s := range *trace {
		if s == "kill:txt-acq" || s == "kill:txt-disp" {
			kills++
		}
	}
	if kills != 2 {
		t.Fatalf("trace = %v", *trace)
	}
	// Completion time = max latency of the subtree.
	if m.RecoveryTime.Max() != (50 * sim.Nanosecond).Seconds() {
		t.Fatalf("recovery time = %v, want 50ns", m.RecoveryTime.Max())
	}
}

func TestRecoverFullRestartsEverything(t *testing.T) {
	k, m, _ := twoUnits(t)
	if err := m.Recover("txt-disp", Full); err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Units() {
		if m.Unit(name).State() != Restarting {
			t.Fatalf("unit %s not restarting under Full", name)
		}
	}
	k.RunAll()
	for _, name := range m.Units() {
		if m.Unit(name).State() != Running {
			t.Fatalf("unit %s not back", name)
		}
	}
}

func TestPartialBeatsFullRecoveryTime(t *testing.T) {
	// E6's core claim: partial recovery of one unit is faster than a full
	// restart (whose time is the max of all restart latencies, and which
	// also takes down healthy units).
	k1, m1, _ := twoUnits(t)
	_ = m1.Recover("txt-acq", UnitOnly)
	k1.RunAll()
	partial := m1.RecoveryTime.Max()

	k2, m2, _ := twoUnits(t)
	_ = m2.Recover("txt-acq", Full)
	k2.RunAll()
	full := m2.RecoveryTime.Max()

	if partial >= full {
		t.Fatalf("partial %v not faster than full %v", partial, full)
	}
	if m2.Unit("video").Downtime == 0 {
		t.Fatal("full restart should cost the healthy unit downtime")
	}
	if m1.Unit("video").Downtime != 0 {
		t.Fatal("partial recovery must not cost healthy units downtime")
	}
}

func TestRecoverErrorsAndIdempotence(t *testing.T) {
	k, m, _ := twoUnits(t)
	if err := m.Recover("ghost", UnitOnly); err == nil {
		t.Fatal("unknown unit must error")
	}
	_ = m.Recover("video", UnitOnly)
	if err := m.Recover("video", UnitOnly); err != nil {
		t.Fatal("re-recovering in-flight unit should be a no-op, not an error")
	}
	k.RunAll()
	if m.Unit("video").Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", m.Unit("video").Recoveries)
	}
}

func TestCommManagerQueuesDuringRecovery(t *testing.T) {
	k, m, _ := twoUnits(t)
	var delivered []Message
	m.Comm().Handle("txt-acq", func(msg Message) { delivered = append(delivered, msg) })

	m.Comm().Send(Message{From: "ui", To: "txt-acq", Name: "page", Payload: 100})
	if len(delivered) != 1 {
		t.Fatal("running unit should get messages synchronously")
	}
	_ = m.Recover("txt-acq", UnitOnly)
	m.Comm().Send(Message{From: "ui", To: "txt-acq", Name: "page", Payload: 101})
	m.Comm().Send(Message{From: "ui", To: "txt-acq", Name: "page", Payload: 102})
	if len(delivered) != 1 {
		t.Fatal("messages to a down unit must be held back")
	}
	if m.Comm().PendingFor("txt-acq") != 2 {
		t.Fatalf("pending = %d", m.Comm().PendingFor("txt-acq"))
	}
	k.RunAll()
	if len(delivered) != 3 {
		t.Fatalf("delivered = %d, want queued flush on restart", len(delivered))
	}
	if delivered[1].Payload != 101 || delivered[2].Payload != 102 {
		t.Fatal("flush must preserve order")
	}
	if m.Comm().Delivered != 3 || m.Comm().Queued != 2 {
		t.Fatalf("comm stats: %+v", m.Comm())
	}
}

func TestCommManagerQueueCapDrops(t *testing.T) {
	k, m, _ := twoUnits(t)
	m.Comm().QueueCap = 2
	_ = m.Recover("txt-acq", UnitOnly)
	for i := 0; i < 5; i++ {
		m.Comm().Send(Message{To: "txt-acq", Payload: float64(i)})
	}
	if m.Comm().Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", m.Comm().Dropped)
	}
	k.RunAll()
}

func TestCommManagerUnknownUnitPanics(t *testing.T) {
	_, m, _ := twoUnits(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Comm().Send(Message{To: "ghost"})
}

func TestManagerAddUnitPanics(t *testing.T) {
	m := NewManager(sim.NewKernel(1))
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		fn()
	}
	mustPanic(func() { m.AddUnit(&Unit{}) })
	m.AddUnit(&Unit{Name: "u"})
	mustPanic(func() { m.AddUnit(&Unit{Name: "u"}) })
}

func TestTransitiveDependents(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewManager(k)
	m.AddUnit(&Unit{Name: "a"})
	m.AddUnit(&Unit{Name: "b", DependsOn: []string{"a"}})
	m.AddUnit(&Unit{Name: "c", DependsOn: []string{"b"}})
	m.AddUnit(&Unit{Name: "d"})
	_ = m.Recover("a", Subtree)
	if m.Unit("c").State() != Restarting {
		t.Fatal("transitive dependent missed")
	}
	if m.Unit("d").State() != Running {
		t.Fatal("independent unit touched")
	}
	k.RunAll()
}
