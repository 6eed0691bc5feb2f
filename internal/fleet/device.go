package fleet

import (
	"fmt"
	"sync"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// Device is one fleet member: a virtual clock, a monitor watching the
// device against its specification model, and the SUO side the pool feeds
// events to. Everything in a Device is owned by its shard goroutine —
// factories must not share kernels, models or monitors between devices.
type Device struct {
	ID     string
	Kernel *sim.Kernel
	// Monitor, when non-nil, contributes to the fleet rollup and its error
	// reports fan into the pool handlers.
	Monitor *core.Monitor
	// SUO, when non-nil, is an in-process simulated SUO: Feed hands it
	// every fleet-dispatched event (e.g. a remote key press to a TV) once
	// the monitor has observed it, and the SUO reacts — typically with
	// outputs fed to the monitor. It runs on the shard goroutine.
	SUO func(event.Event)

	// send is a remote device's monitor→SUO sink for error-report pushes
	// (nil for in-process devices). A device rebuilt from a journal — whose
	// original connection died with the crashed daemon — starts with a
	// discarding sink and is re-pointed at the reconnecting client's
	// connection (Pool.AttachDevice). Only the shard goroutine touches it.
	send func(wire.Message) error
	// quarantined marks a device the recovery control plane took out of
	// service: dispatches and broadcasts to it are dropped and counted.
	// Owned by the shard goroutine like the rest of the Device
	// (Pool.QuarantineDevice sets it there).
	quarantined bool
}

// Feed delivers one fleet-dispatched event to the device: its virtual
// clock first advances to the event timestamp (firing model timers,
// silence sweeps and time-based comparison exactly as in-process
// monitoring would), then the event enters the monitor's observers, then a
// simulated SUO reacts to it. It runs on the shard goroutine.
func (d *Device) Feed(e event.Event) {
	if e.At > d.Kernel.Now() {
		d.Kernel.Run(e.At)
	}
	if d.Monitor != nil {
		switch e.Kind {
		case event.Input:
			d.Monitor.HandleInput(e)
		case event.Output, event.State:
			d.Monitor.HandleOutput(e)
		}
	}
	if d.SUO != nil {
		d.SUO(e)
	}
}

// pushed recycles the report an error frame points at: send encodes the
// frame before it returns and keeps nothing, so a report costs no
// allocation.
var pushed = sync.Pool{New: func() any { return new(wire.ErrorReport) }}

// push sends one of the monitor's error reports down a remote device's
// connection, best-effort: a broken error channel must not stop detection.
func (d *Device) push(r wire.ErrorReport) {
	rp := pushed.Get().(*wire.ErrorReport)
	*rp = r
	_ = d.send(wire.Message{Type: wire.TypeError, SUO: d.ID, Error: rp, At: r.At})
	*rp = wire.ErrorReport{}
	pushed.Put(rp)
}

// close stops the device's monitor on removal or pool stop.
func (d *Device) close() {
	if d.Monitor != nil {
		d.Monitor.Stop()
	}
}

// Factory builds one device. It runs on the owning shard's goroutine, so
// construction parallelises across shards; seed derives the device's
// deterministic behaviour (including whether it is faulty in synthetic
// fleets).
type Factory func(id string, seed int64) (*Device, error)

// LightFactory returns a factory for a minimal monitored device, sized so
// thousands fit in one process: a one-state spec model tracking the
// commanded level "x", and a simulated SUO that echoes each "set" command
// as an "out" observation. One in faultEvery devices (by seed; 0 disables)
// is built broken — its echo drifts beyond the comparator threshold, so the
// fleet monitor flags it. The monitor re-compares every 10ms of virtual
// time, so Advance generates periodic comparator work like a real fleet.
func LightFactory(faultEvery int) Factory {
	return func(id string, seed int64) (*Device, error) {
		k := sim.NewKernel(seed)
		mon, err := lightMonitor(k)
		if err != nil {
			return nil, err
		}
		faulty := faultEvery > 0 && seed%int64(faultEvery) == 0
		d := &Device{ID: id, Kernel: k, Monitor: mon}
		d.SUO = func(e event.Event) {
			// The simulated SUO reacts instantly: it echoes each commanded
			// level as its observable output...
			v, ok := e.Get("x")
			if e.Kind != event.Input || !ok {
				return
			}
			if faulty {
				v += 1 // ...unless this device is broken in the field.
			}
			out := event.Event{Kind: event.Output, Name: "out", Source: id, At: k.Now()}
			mon.HandleOutput(out.With("x", v))
		}
		return d, nil
	}
}

// lightConfig is every light monitor's comparator configuration, shared.
var lightConfig = core.Configuration{
	Observables: []core.Observable{
		{Name: "x", EventName: "out", ValueName: "x", ModelVar: "x", Threshold: 0.25, Tolerance: 1},
	},
	CompareEvery: 10 * sim.Millisecond,
}

// lightSpec is the light monitors' one-state spec model tracking the
// commanded level "x", defined once and shared by every light device.
var lightSpec = sync.OnceValue(func() *statemachine.Spec {
	r := statemachine.NewRegion("dev")
	r.Add(&statemachine.State{
		Name:  "run",
		Entry: func(c *statemachine.Context) { c.Set("x", 0) },
		Transitions: []statemachine.Transition{{
			Event: "set",
			Action: func(c *statemachine.Context) {
				if v, ok := c.Event.Get("x"); ok {
					c.Set("x", v)
				}
			},
		}},
	})
	return statemachine.MustDefine("dev", []string{"x"}, r)
})

// lightMonitor builds the minimal started monitor LightFactory and
// LightMonitorFactory share: an instance of lightSpec, re-compared every
// 10ms of virtual time.
func lightMonitor(k *sim.Kernel) (*core.Monitor, error) {
	mon, err := core.NewMonitor(k, lightSpec().New(k), lightConfig)
	if err != nil {
		return nil, err
	}
	if err := mon.Start(); err != nil {
		return nil, err
	}
	return mon, nil
}

// DeviceID formats the canonical fleet device ID for index i.
func DeviceID(i int) string { return fmt.Sprintf("dev-%06d", i) }
