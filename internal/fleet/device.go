package fleet

import (
	"fmt"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

// Device is one fleet member: a virtual clock, a monitor watching the
// device against its specification model, and a Feed through which the pool
// delivers events. Everything in a Device is owned by its shard goroutine —
// factories must not share kernels, models or monitors between devices.
type Device struct {
	ID     string
	Kernel *sim.Kernel
	// Monitor, when non-nil, contributes to the fleet rollup and its error
	// reports fan into the pool handlers.
	Monitor *core.Monitor
	// Feed delivers one fleet-dispatched event to the device (e.g. a remote
	// key press to a TV). It runs on the shard goroutine.
	Feed func(event.Event)
	// Close, when non-nil, tears the device down on removal or pool stop.
	Close func()
	// Attach, when non-nil, redirects the device's monitor→SUO traffic
	// (error-report pushes) to a new sink. RemoteDevice sets it so a device
	// rebuilt from a journal — whose original connection died with the
	// crashed daemon — can be re-adopted by the reconnecting client
	// (Pool.AttachDevice). It runs on the shard goroutine.
	Attach func(send func(wire.Message) error)

	// quarantined marks a device the recovery control plane took out of
	// service: dispatches and broadcasts to it are dropped and counted.
	// Owned by the shard goroutine like the rest of the Device
	// (Pool.QuarantineDevice sets it there).
	quarantined bool
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
		mon, err := lightMonitor(id, k)
		if err != nil {
			return nil, err
		}
		faulty := faultEvery > 0 && seed%int64(faultEvery) == 0
		d := &Device{ID: id, Kernel: k, Monitor: mon, Close: mon.Stop}
		d.Feed = func(e event.Event) {
			switch e.Kind {
			case event.Input:
				mon.HandleInput(e)
				// The simulated SUO reacts instantly: it echoes the
				// commanded level as its observable output...
				v, ok := e.Get("x")
				if !ok {
					return
				}
				if faulty {
					v += 1 // ...unless this device is broken in the field.
				}
				out := event.Event{Kind: event.Output, Name: "out", Source: id, At: k.Now()}
				mon.HandleOutput(out.With("x", v))
			case event.Output, event.State:
				mon.HandleOutput(e)
			}
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

// lightMonitor builds the minimal started monitor LightFactory and
// LightMonitorFactory share: a one-state spec model tracking the commanded
// level "x", re-compared every 10ms of virtual time.
func lightMonitor(id string, k *sim.Kernel) (*core.Monitor, error) {
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
	model := statemachine.MustModel("dev-"+id, k, r)
	mon, err := core.NewMonitor(k, model, lightConfig)
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
