package aspect

import (
	"testing"

	"trader/internal/event"
	"trader/internal/koala"
	"trader/internal/sim"
)

// TestThirdPartyComponentMonitoredWithoutModification exercises the paper's
// deployment constraint: "we aim at minimal adaptation of the software of
// the system, to be able to deal with third-party software and legacy
// code". A third-party decoder is added to the system as an opaque Iface —
// its internals are never touched — yet observation (call events) and error
// detection (range checking on its outputs) are woven on from outside.
func TestThirdPartyComponentMonitoredWithoutModification(t *testing.T) {
	k := sim.NewKernel(1)
	bus := event.NewBus()
	sys := koala.NewSystem(k, "s", bus)

	// The vendor blob: behaviour we cannot change. It has a defect — at
	// input 13 it returns a wildly out-of-range sample.
	vendor := sys.AddComponent("vendor-codec")
	vendor.Provide("ICodec", koala.Iface{
		"decode": func(a koala.Args) koala.Args {
			in := a["in"]
			if in == 13 {
				return koala.Args{"sample": 1e6} // the bug
			}
			return koala.Args{"sample": in * 2}
		},
	})
	app := sys.AddComponent("app")
	app.Require("ICodec")
	if err := sys.Bind("app", "ICodec", "vendor-codec"); err != nil {
		t.Fatal(err)
	}

	// Observation: woven, not coded into the component.
	ObserveCalls(sys.Weaver(), koala.Pointcut{Callee: "vendor-codec"}, bus, k)

	// Detection: range check the woven call events.
	var violations []float64
	checks := 0
	bus.Subscribe("call:ICodec.decode", func(e event.Event) {
		checks++
		if v, ok := e.Get("ret.sample"); ok && (v < -1000 || v > 1000) {
			violations = append(violations, v)
		}
	})

	for i := 0; i < 20; i++ {
		app.Call("ICodec", "decode", koala.Args{"in": float64(i)})
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want exactly the input-13 defect", len(violations))
	}
	if violations[0] != 1e6 {
		t.Fatalf("violation = %v", violations[0])
	}
	if checks != 20 {
		t.Fatalf("checks = %d, want one per call", checks)
	}
}
