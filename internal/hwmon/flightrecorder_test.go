package hwmon_test

import (
	"fmt"
	"sync"
	"testing"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/hwmon"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

func TestFlightRecorderWindow(t *testing.T) {
	fr := hwmon.NewFlightRecorder(3)
	bus := event.NewBus()
	sub := bus.Subscribe("", fr.Record)
	for i := 0; i < 5; i++ {
		bus.Publish(event.Event{Name: "e", Seq: uint64(i)})
	}
	snap := fr.Capture()
	if len(snap) != 3 || snap[0].Seq != 2 || snap[2].Seq != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	if fr.Dropped() != 2 || fr.Len() != 3 {
		t.Fatalf("stats: dropped=%d len=%d", fr.Dropped(), fr.Len())
	}
	sub.Unsubscribe()
	bus.Publish(event.Event{Name: "e", Seq: 99})
	if fr.Capture()[2].Seq != 4 {
		t.Fatal("detached recorder still recording")
	}
}

func TestFlightRecorderFilter(t *testing.T) {
	fr := hwmon.NewFlightRecorder(10)
	bus := event.NewBus()
	bus.Subscribe("", fr.Record)
	for i := 0; i < 6; i++ {
		name := "frame"
		if i%2 == 0 {
			name = "audio"
		}
		bus.Publish(event.Event{Name: name, Seq: uint64(i)})
	}
	audio := fr.CaptureMatching(func(e event.Event) bool { return e.Name == "audio" })
	if len(audio) != 3 {
		t.Fatalf("filtered = %d, want 3", len(audio))
	}
}

// TestFlightRecorderWraparound drives the ring through many full cycles and
// checks the retained window is exactly the last `capacity` events, in
// order, at every cycle boundary and mid-cycle position.
func TestFlightRecorderWraparound(t *testing.T) {
	const capacity = 7
	fr := hwmon.NewFlightRecorder(capacity)
	for i := 0; i < 5*capacity+3; i++ {
		fr.Record(event.Event{Name: "e", Seq: uint64(i)})
		snap := fr.Capture()
		wantLen := i + 1
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(snap) != wantLen || fr.Len() != wantLen {
			t.Fatalf("after %d events: window %d/%d, want %d", i+1, len(snap), fr.Len(), wantLen)
		}
		for j, e := range snap {
			if want := uint64(i + 1 - wantLen + j); e.Seq != want {
				t.Fatalf("after %d events: snap[%d].Seq = %d, want %d", i+1, j, e.Seq, want)
			}
		}
		wantDropped := uint64(0)
		if i+1 > capacity {
			wantDropped = uint64(i + 1 - capacity)
		}
		if fr.Dropped() != wantDropped {
			t.Fatalf("after %d events: dropped %d, want %d", i+1, fr.Dropped(), wantDropped)
		}
	}
	// A capacity-1 ring degenerates to "latest event only".
	one := hwmon.NewFlightRecorder(1)
	for i := 0; i < 4; i++ {
		one.Record(event.Event{Seq: uint64(i)})
	}
	if snap := one.Capture(); len(snap) != 1 || snap[0].Seq != 3 {
		t.Fatalf("capacity-1 window = %v", snap)
	}
}

// TestFlightRecorderSnapshotUnderLoad captures while concurrent publishers
// hammer the shared bus — the exact shape of the fleet diagnosis pull,
// where a snapshot request lands while the device keeps streaming. Run
// under -race this doubles as the recorder's concurrency audit. Every
// snapshot must be internally consistent (monotonic per-publisher
// sequences, length within capacity) and the final accounting must balance.
func TestFlightRecorderSnapshotUnderLoad(t *testing.T) {
	const (
		capacity   = 64
		publishers = 4
		perPub     = 500
		captures   = 200
	)
	fr := hwmon.NewFlightRecorder(capacity)
	bus := event.NewBus()
	bus.Subscribe("", fr.Record)

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				bus.Publish(event.Event{Name: "load", Source: fmt.Sprintf("pub-%d", p), Seq: uint64(i)})
			}
		}(p)
	}
	var snapErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < captures; i++ {
			snap := fr.Capture()
			if len(snap) > capacity {
				snapErr = fmt.Errorf("capture %d: window %d exceeds capacity", i, len(snap))
				return
			}
			last := make(map[string]uint64)
			for _, e := range snap {
				if prev, ok := last[e.Source]; ok && e.Seq <= prev {
					snapErr = fmt.Errorf("capture %d: %s seq %d after %d (torn window)", i, e.Source, e.Seq, prev)
					return
				}
				last[e.Source] = e.Seq
			}
		}
	}()
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if got := uint64(fr.Len()) + fr.Dropped(); got != publishers*perPub {
		t.Fatalf("retained+dropped = %d, want %d", got, publishers*perPub)
	}
}

// TestPreErrorContextOnTV: the recorder preserves the events leading up to
// a detected error on the TV — the input a diagnosis engine needs.
func TestPreErrorContextOnTV(t *testing.T) {
	k := sim.NewKernel(6)
	cfg := tvsim.Config{}
	tv := tvsim.New(k, cfg)
	model := tvsim.BuildSpecModel(k, cfg)
	mon, err := core.NewMonitor(k, model, core.Configuration{
		Observables: []core.Observable{
			{Name: "audio-volume", EventName: "audio", ValueName: "volume",
				ModelVar: "volume", Threshold: 0.5, Tolerance: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fr := hwmon.NewFlightRecorder(64)
	tv.Bus().Subscribe("", fr.Record)
	var context []event.Event
	mon.OnError(func(wire.ErrorReport) {
		if context == nil {
			context = fr.Capture()
		}
	})
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	mon.AttachBus(tv.Bus())

	tv.PressKey(tvsim.KeyPower)
	k.Run(sim.Second)
	tv.Injector().Schedule(faults.Fault{
		ID: "skew", Kind: faults.ValueCorruption, Target: "audio",
		At: k.Now(), Param: -15,
	})
	k.Run(k.Now() + 50*sim.Millisecond)
	tv.PressKey(tvsim.KeyVolUp)
	tv.PressKey(tvsim.KeyVolUp)
	k.Run(k.Now() + 50*sim.Millisecond)

	if context == nil {
		t.Fatal("error not detected")
	}
	// The window must contain the key presses that preceded the detection.
	keys := 0
	for _, e := range context {
		if e.Name == "key" {
			keys++
		}
	}
	if keys < 2 {
		t.Fatalf("pre-error context lost the key presses: %d keys in %d events", keys, len(context))
	}
	// Chronological order.
	for i := 1; i < len(context); i++ {
		if context[i].At < context[i-1].At {
			t.Fatal("context out of order")
		}
	}
}
