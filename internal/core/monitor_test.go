package core

import (
	"strings"
	"testing"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// tinyModel returns a model with one var "x" set by input event "set"
// (payload "v"), plus an enable flag "gate" toggled by event "gate".
func tinySpec() *statemachine.Spec {
	r := statemachine.NewRegion("r")
	r.Add(&statemachine.State{
		Name: "s",
		Entry: func(c *statemachine.Context) {
			c.Set("x", 0)
			c.Set("gate", 1)
		},
		Transitions: []statemachine.Transition{
			{Event: "set", Action: func(c *statemachine.Context) {
				v, _ := c.Event.Get("v")
				c.Set("x", v)
			}},
			{Event: "gate", Action: func(c *statemachine.Context) {
				c.SetBool("gate", c.Get("gate") == 0)
			}},
		},
	})
	return statemachine.MustDefine("tiny", []string{"x", "gate"}, r)
}

func tinyModel(k *sim.Kernel) *statemachine.Model { return tinySpec().New(k) }

func newTinyMonitor(t *testing.T, cfg Configuration) (*sim.Kernel, *Monitor, *[]wire.ErrorReport) {
	t.Helper()
	k := sim.NewKernel(1)
	m, err := NewMonitor(k, tinyModel(k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	m.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	return k, m, &reports
}

func obsX(threshold float64, tolerance int) Observable {
	return Observable{
		EventName: "out", ValueName: "x", ModelVar: "x",
		Threshold: threshold, Tolerance: tolerance,
	}
}

func outEvent(v float64) event.Event {
	return event.Event{Kind: event.Output, Name: "out"}.With("x", v)
}

func setEvent(v float64) event.Event {
	return event.Event{Kind: event.Input, Name: "set"}.With("v", v)
}

func TestComparatorDetectsDeviation(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0.5, 0)}})
	m.HandleInput(setEvent(10))
	m.HandleOutput(outEvent(10.2)) // within threshold
	if len(*reports) != 0 {
		t.Fatalf("reports = %v, want none", *reports)
	}
	m.HandleOutput(outEvent(12)) // deviation
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(*reports))
	}
	r := (*reports)[0]
	if r.Detector != "comparator" || r.Expected != 10 || r.Actual != 12 {
		t.Fatalf("report = %+v", r)
	}
	st := m.Stats()
	if st.Comparisons != 2 || st.Deviations != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestToleranceSuppressesTransients(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0, 2)}})
	m.HandleInput(setEvent(5))
	// Two consecutive deviations: tolerated.
	m.HandleOutput(outEvent(9))
	m.HandleOutput(outEvent(9))
	if len(*reports) != 0 {
		t.Fatal("two deviations should be tolerated with Tolerance 2")
	}
	// Back in line: streak resets.
	m.HandleOutput(outEvent(5))
	m.HandleOutput(outEvent(9))
	m.HandleOutput(outEvent(9))
	if len(*reports) != 0 {
		t.Fatal("streak should have reset")
	}
	// Third consecutive deviation: reported.
	m.HandleOutput(outEvent(9))
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(*reports))
	}
	if (*reports)[0].Consecutive != 3 {
		t.Fatalf("Consecutive = %d, want 3", (*reports)[0].Consecutive)
	}
}

func TestErrorEpisodeReportedOnce(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0, 0)}})
	m.HandleInput(setEvent(1))
	for i := 0; i < 5; i++ {
		m.HandleOutput(outEvent(3))
	}
	if len(*reports) != 1 {
		t.Fatalf("one episode must yield one report, got %d", len(*reports))
	}
	// Recovery then a new episode: a second report.
	m.HandleOutput(outEvent(1))
	m.HandleOutput(outEvent(3))
	if len(*reports) != 2 {
		t.Fatalf("new episode should report again, got %d", len(*reports))
	}
}

func TestEnableVarGatesComparison(t *testing.T) {
	cfg := Configuration{Observables: []Observable{{
		EventName: "out", ValueName: "x", ModelVar: "x", EnableVar: "gate",
	}}}
	_, m, reports := newTinyMonitor(t, cfg)
	m.HandleInput(setEvent(1))
	m.HandleInput(event.Event{Kind: event.Input, Name: "gate"}) // gate -> 0
	m.HandleOutput(outEvent(99))
	if len(*reports) != 0 {
		t.Fatal("gated observable must not be compared")
	}
	m.HandleInput(event.Event{Kind: event.Input, Name: "gate"}) // gate -> 1
	m.HandleOutput(outEvent(99))
	if len(*reports) != 1 {
		t.Fatal("ungated observable must be compared")
	}
}

func TestSilenceDetection(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Configuration{
		Observables: []Observable{{
			EventName: "out", ValueName: "x", ModelVar: "x",
			MaxSilence: 100 * sim.Millisecond,
		}},
		SilenceCheckEvery: 10 * sim.Millisecond,
	}
	m, err := NewMonitor(k, tinyModel(k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	m.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	_ = m.Start()
	// Events flow for a while...
	for i := 0; i < 5; i++ {
		k.Run(k.Now() + 50*sim.Millisecond)
		m.HandleOutput(outEvent(0))
	}
	if len(reports) != 0 {
		t.Fatalf("no silence yet: %v", reports)
	}
	// ...then stop. The sweep should fire once per gap.
	k.Run(k.Now() + 300*sim.Millisecond)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1 silence error", len(reports))
	}
	if reports[0].Detector != "silence" || !strings.Contains(reports[0].Detail, "no out event") {
		t.Fatalf("report = %+v", reports[0])
	}
	// Traffic resumes: a later gap is a fresh episode.
	m.HandleOutput(outEvent(0))
	k.Run(k.Now() + 300*sim.Millisecond)
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
}

func TestTimeBasedCompareCatchesStaleValue(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := Configuration{
		Observables:  []Observable{obsX(0, 0)},
		CompareEvery: 20 * sim.Millisecond,
	}
	m, err := NewMonitor(k, tinyModel(k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	m.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	_ = m.Start()
	m.HandleOutput(outEvent(0)) // matches model (x=0)
	// Model moves to 5, but the SUO never emits a new value: only the
	// periodic time-based comparison can catch the stale output.
	m.HandleInput(setEvent(5))
	k.Run(k.Now() + 100*sim.Millisecond)
	if len(reports) == 0 {
		t.Fatal("time-based comparison should flag the stale value")
	}
	if reports[0].Expected != 5 || reports[0].Actual != 0 {
		t.Fatalf("report = %+v", reports[0])
	}
}

func TestModelInvariantViolationReported(t *testing.T) {
	k := sim.NewKernel(1)
	spec := tinySpec()
	spec.AddInvariant("x-small", func(m *statemachine.Model) bool { return m.Var("x") < 100 })
	model := spec.New(k)
	m, err := NewMonitor(k, model, Configuration{Observables: []Observable{obsX(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	m.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	_ = m.Start()
	m.HandleInput(setEvent(200))
	if len(reports) != 1 || reports[0].Detector != "model-invariant" {
		t.Fatalf("reports = %v", reports)
	}
	if m.Stats().ModelErrors != 1 {
		t.Fatal("ModelErrors not counted")
	}
}

func TestResetObservableStartsNewEpisode(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0, 0)}})
	m.HandleInput(setEvent(1))
	m.HandleOutput(outEvent(3))
	m.HandleOutput(outEvent(3))
	if len(*reports) != 1 {
		t.Fatalf("want 1 report, got %d", len(*reports))
	}
	m.ResetObservable("out.x")
	m.HandleOutput(outEvent(3))
	if len(*reports) != 2 {
		t.Fatal("after reset, a persisting deviation is a new episode")
	}
}

func TestConfigurationValidate(t *testing.T) {
	bad := []Configuration{
		{Observables: []Observable{{EventName: "e"}}},
		{Observables: []Observable{obsX(-1, 0)}},
		{Observables: []Observable{obsX(0, 0), obsX(0, 0)}},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	k := sim.NewKernel(1)
	if _, err := NewMonitor(k, tinyModel(k), bad[0]); err == nil {
		t.Fatal("NewMonitor must reject invalid config")
	}
}

func TestMonitorLifecycle(t *testing.T) {
	_, m, reports := newTinyMonitor(t, Configuration{Observables: []Observable{obsX(0, 0)}})
	if err := m.Start(); err == nil {
		t.Fatal("double start should fail")
	}
	m.Stop()
	m.HandleInput(setEvent(1))
	m.HandleOutput(outEvent(9))
	if len(*reports) != 0 {
		t.Fatal("stopped monitor must ignore events")
	}
	if m.Stats().InputsSeen != 0 {
		t.Fatal("stopped monitor must not count")
	}
}

func TestAttachBusRouting(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := NewMonitor(k, tinyModel(k), Configuration{Observables: []Observable{obsX(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	m.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	_ = m.Start()
	bus := event.NewBus()
	m.AttachBus(bus)
	bus.Publish(setEvent(4))
	bus.Publish(outEvent(4))
	bus.Publish(outEvent(6))
	st := m.Stats()
	if st.InputsSeen != 1 || st.OutputsSeen != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	m.Stop() // unsubscribes
	bus.Publish(outEvent(6))
	if m.Stats().OutputsSeen != 2 {
		t.Fatal("detached monitor still receiving")
	}
}

func TestObservableNames(t *testing.T) {
	_, m, _ := newTinyMonitor(t, Configuration{Observables: []Observable{
		{Name: "zz", EventName: "out", ValueName: "x", ModelVar: "x"},
		{EventName: "out", ValueName: "y", ModelVar: "x"},
	}})
	names := m.ObservableNames()
	if len(names) != 2 || names[0] != "out.y" || names[1] != "zz" {
		t.Fatalf("names = %v", names)
	}
}
