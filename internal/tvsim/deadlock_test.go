package tvsim

import (
	"testing"

	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
)

// TestDeadlockFaultWedgesPipeline checks the silent-deadlock fault: frames
// stop, but component modes still claim everything is fine — the class of
// failure "the user can immediately observe ... whereas the system itself is
// completely unaware of".
func TestDeadlockFaultWedgesPipeline(t *testing.T) {
	k := sim.NewKernel(1)
	tv := New(k, Config{})
	frames := 0
	tv.Bus().Subscribe("frame", func(event.Event) { frames++ })
	tv.PressKey(KeyPower)
	tv.Injector().Schedule(faults.Fault{
		ID: "dl", Kind: faults.Deadlock, Target: "video",
		At: sim.Second, Duration: 2 * sim.Second,
	})
	k.Run(sim.Second + 500*sim.Millisecond)
	atWedge := frames
	k.Run(2 * sim.Second)
	if frames != atWedge {
		t.Fatal("frames kept flowing during deadlock")
	}
	// Modes stay healthy: the deadlock is silent at the component level.
	if tv.cVideo.Mode() != "playing" {
		t.Fatalf("video mode = %q; the deadlock must be silent", tv.cVideo.Mode())
	}
	k.Run(4 * sim.Second)
	if frames <= atWedge {
		t.Fatal("frames should resume after the deadlock clears")
	}
}
