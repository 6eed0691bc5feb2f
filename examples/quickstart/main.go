// Command quickstart: the smallest complete awareness loop.
//
// A toy SUO (a thermostat whose sensor can be corrupted) is monitored
// against a two-line specification model. A fault is injected, the monitor
// detects the deviation, and a recovery handler repairs the SUO.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/wire"
)

func main() {
	k := sim.NewKernel(1)

	// --- The SUO: a heater controller that reports its setpoint. ---
	bus := event.NewBus()
	setpoint, corruption := 20.0, 0.0
	var seq uint64
	report := func() {
		seq++
		bus.Publish(event.Event{
			Kind: event.Output, Name: "thermo", At: k.Now(), Seq: seq,
		}.With("setpoint", setpoint+corruption))
	}
	setTo := func(v float64) {
		setpoint = v
		seq++
		bus.Publish(event.Event{
			Kind: event.Input, Name: "set", At: k.Now(), Seq: seq,
		}.With("v", v))
		report()
	}

	// --- The specification model: setpoint follows the last "set". ---
	r := statemachine.NewRegion("thermo")
	r.Add(&statemachine.State{
		Name: "tracking",
		Transitions: []statemachine.Transition{
			{Event: "set", Action: func(c *statemachine.Context) {
				v, _ := c.Event.Get("v")
				c.Set("setpoint", v)
			}},
		},
	})
	model := statemachine.MustDefine("thermo-spec", []string{"setpoint"}, r).New(k)

	// --- The awareness monitor (Fig. 2, in-process). ---
	mon, err := core.NewMonitor(k, model, core.Configuration{
		Observables: []core.Observable{{
			Name: "setpoint", EventName: "thermo", ValueName: "setpoint",
			ModelVar: "setpoint", Threshold: 0.5, Tolerance: 1,
		}},
	})
	if err != nil {
		panic(err)
	}
	mon.OnError(func(rep wire.ErrorReport) {
		fmt.Printf("[%v] detected: %s (expected %.1f, actual %.1f)\n",
			rep.At, rep.Observable, rep.Expected, rep.Actual)
		// Recovery: reset the corrupted sensor path.
		corruption = 0
		mon.ResetObservable("setpoint")
		report()
		fmt.Printf("[%v] recovered: corruption cleared\n", k.Now())
	})
	if err := mon.Start(); err != nil {
		panic(err)
	}
	mon.AttachBus(bus)

	// --- A healthy run... ---
	setTo(21)
	k.Run(sim.Second)
	setTo(22)
	k.Run(2 * sim.Second)

	// --- ...then a fault: the sensor path starts reading 5 degrees high. ---
	k.Schedule(0, func() {
		corruption = 5
		fmt.Printf("[%v] fault injected: sensor skew +5\n", k.Now())
		report() // first deviating observation (tolerated)
		report() // second consecutive deviation → error → recovery
	})
	k.Run(3 * sim.Second)

	st := mon.Stats()
	fmt.Printf("done: %d observations, %d comparisons, %d errors, corruption now %.0f\n",
		st.OutputsSeen, st.Comparisons, st.Errors, corruption)
}
