package exper

import (
	"time"

	"trader/internal/core"
	"trader/internal/device"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// E2 measures the awareness framework's overhead (Fig. 2): how many
// observations per (wall-clock) second the monitor sustains, in-process and
// across the process boundary, and the bookkeeping volume. The paper's
// requirement is qualitative — "minimal additional hardware costs and
// without degrading performance" — so the shape that matters is that the
// per-event cost is microseconds, far below the SUO's event rates.

func e2Model(k *sim.Kernel) *statemachine.Model {
	r := statemachine.NewRegion("r")
	r.Add(&statemachine.State{
		Name:  "s",
		Entry: func(c *statemachine.Context) { c.Set("x", 0) },
		Transitions: []statemachine.Transition{
			{Event: "set", Action: func(c *statemachine.Context) {
				v, _ := c.Event.Get("v")
				c.Set("x", v)
			}},
		},
	})
	return statemachine.MustDefine("bench", []string{"x"}, r).New(k)
}

func e2Config() core.Configuration {
	return core.Configuration{Observables: []core.Observable{
		{EventName: "out", ValueName: "x", ModelVar: "x", Threshold: 0.5, Tolerance: 1},
	}}
}

// E2InProcessThroughput pushes n observations through a monitor in-process
// and returns events/second (wall clock).
func E2InProcessThroughput(n int) (float64, error) {
	k := sim.NewKernel(1)
	mon, err := core.NewMonitor(k, e2Model(k), e2Config())
	if err != nil {
		return 0, err
	}
	if err := mon.Start(); err != nil {
		return 0, err
	}
	e := event.Event{Kind: event.Output, Name: "out"}.With("x", 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		mon.HandleOutput(e)
	}
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), nil
}

// E2SocketThroughput pushes n observations through the daemon's ingestion
// path — a fleet.Server on a loopback TCP listener, dialled with the device
// client — into one served monitor and returns events/second. A heartbeat
// closes the run: its echo comes back once every observation before it was
// monitored.
func E2SocketThroughput(n int) (float64, error) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, Factory: func(string, int64) (*sim.Kernel, *core.Monitor, error) {
		k := sim.NewKernel(1)
		mon, err := core.NewMonitor(k, e2Model(k), e2Config())
		if err != nil {
			return nil, nil, err
		}
		return k, mon, mon.Start()
	}}
	defer srv.Close()
	ln, err := wire.Listen("tcp:127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	go srv.Serve(ln)
	c := &device.Client{}
	if _, err := c.Dial("tcp:"+ln.Addr().String(), wire.Message{SUO: "bench", Codec: wire.CodecBinary}); err != nil {
		return 0, err
	}
	defer c.Close()
	e := event.Event{Kind: event.Output, Name: "out"}.With("x", 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		e.At = sim.Time(i)
		if err := c.Send(e); err != nil {
			return 0, err
		}
	}
	if err := c.Heartbeat(sim.Time(n)); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if got := pool.Rollup().Monitor.OutputsSeen; got != uint64(n) {
		return 0, f2err("socket path lost events: %d of %d", got, n)
	}
	return float64(n) / elapsed.Seconds(), nil
}

func f2err(format string, args ...any) error { return &harnessError{f(format, args...)} }

type harnessError struct{ s string }

func (e *harnessError) Error() string { return e.s }

// E2FrameworkOverhead renders the overhead table.
func E2FrameworkOverhead() (*Table, error) {
	const n = 50000
	inproc, err := E2InProcessThroughput(n)
	if err != nil {
		return nil, err
	}
	sock, err := E2SocketThroughput(n)
	if err != nil {
		return nil, err
	}
	// Observation volume on a realistic run: 10 s of monitored TV.
	k, tv, mon, err := NewMonitoredTV(2, tvsim.Config{})
	if err != nil {
		return nil, err
	}
	tv.PressKey(tvsim.KeyPower)
	tv.PressKey(tvsim.KeyText)
	k.Run(10 * sim.Second)
	st := mon.Stats()

	t := &Table{
		ID:      "E2",
		Title:   "Awareness framework overhead (Fig. 2 deployment)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("in-process observations/s", f("%.0f", inproc))
	t.AddRow("cross-process (fleet.Server, loopback TCP) observations/s", f("%.0f", sock))
	t.AddRow("ns/event in-process", f("%.0f", 1e9/inproc))
	t.AddRow("ns/event cross-process", f("%.0f", 1e9/sock))
	t.AddRow("TV events observed in 10 s", f("%d", st.OutputsSeen+st.InputsSeen))
	t.AddRow("comparisons in 10 s", f("%d", st.Comparisons))
	t.Notes = append(t.Notes,
		"paper claim (qualitative): monitoring must not degrade performance; partial models keep the load bounded",
		"expected shape: per-event cost orders of magnitude below the SUO's inter-event gaps (ms-scale)")
	return t, nil
}

// E3ComparatorTradeoff sweeps the comparator's consecutive-deviation
// tolerance (Sect. 4.3): short benign glitches (bad-input dips the product
// must tolerate) versus a genuine sustained overload. Low tolerance reports
// the glitches as errors (false positives); high tolerance delays detection
// of the real fault. The paper: "we have to make a trade-off between taking
// more time to avoid false errors and reporting errors fast to allow quick
// repair".
func E3ComparatorTradeoff(seed int64) (*Table, error) {
	type outcome struct {
		tolerance int
		falsePos  int
		latency   sim.Time
		detected  bool
	}
	const realFault = "overload"
	var results []outcome
	for _, tol := range []int{0, 1, 2, 3, 5, 8, 12} {
		k := sim.NewKernel(seed)
		cfg := tvsim.Config{}
		tv := tvsim.New(k, cfg)
		model := tvsim.BuildSpecModel(k, cfg)
		tvsim.MirrorQuality(model)
		mcfg := core.Configuration{Observables: []core.Observable{
			{Name: "frame-quality", EventName: "frame", ValueName: "quality",
				ModelVar: "quality", Threshold: 0.3, Tolerance: tol, EnableVar: "power"},
		}}
		mon, err := core.NewMonitor(k, model, mcfg)
		if err != nil {
			return nil, err
		}
		if err := mon.Start(); err != nil {
			return nil, err
		}
		mon.AttachBus(tv.Bus())

		o := outcome{tolerance: tol}
		var faultAt sim.Time = 12 * sim.Second
		mon.OnError(func(r wire.ErrorReport) {
			// Reports before the sustained fault starts can only come from
			// the benign glitches: false positives. Reports after it are
			// the fault and its backlog aftermath.
			if r.At < faultAt {
				o.falsePos++
			} else if !o.detected {
				o.detected = true
				o.latency = r.At - faultAt
			}
			mon.ResetObservable("frame-quality")
		})
		// Benign glitches: 100 ms signal dips every 2 s.
		for i := 0; i < 5; i++ {
			tv.Injector().Schedule(faults.Fault{
				ID: f("glitch%d", i), Kind: faults.BadInput, Target: "tuner",
				At: sim.Time(2+2*i) * sim.Second, Duration: 100 * sim.Millisecond, Param: 0.4,
			})
		}
		// The real fault: sustained overload.
		tv.Injector().Schedule(faults.Fault{
			ID: realFault, Kind: faults.Overload, Target: "video",
			At: faultAt, Duration: 5 * sim.Second, Param: 3,
		})
		tv.PressKey(tvsim.KeyPower)
		k.Run(20 * sim.Second)
		results = append(results, o)
	}
	t := &Table{
		ID:      "E3",
		Title:   "Comparator eagerness trade-off (Sect. 4.3): tolerance vs false positives and detection latency",
		Columns: []string{"tolerance", "false positives", "real fault detected", "detection latency"},
	}
	for _, o := range results {
		lat := "-"
		if o.detected {
			lat = o.latency.String()
		}
		t.AddRow(f("%d", o.tolerance), f("%d", o.falsePos), f("%v", o.detected), lat)
	}
	t.Notes = append(t.Notes,
		"paper claim: the comparator 'should not be too eager'; thresholds + consecutive-deviation maxima are the knobs",
		"expected shape: false positives fall to 0 as tolerance grows; detection latency grows; an interior setting gets both")
	return t, nil
}
