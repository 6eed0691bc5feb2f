package core_test

import (
	"testing"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// tvObservables is the monitor configuration for the TV SUO used by the
// integration tests (the experiment harness builds the same set).
func tvObservables() core.Configuration {
	return core.Configuration{
		Observables: []core.Observable{
			{Name: "audio-volume", EventName: "audio", ValueName: "volume", ModelVar: "volume", Threshold: 0.5, Tolerance: 1},
			{Name: "channel", EventName: "screen", ValueName: "channel", ModelVar: "channel"},
			{Name: "teletext-visible", EventName: "screen", ValueName: "teletext", ModelVar: "teletext"},
			{Name: "teletext-fresh", EventName: "teletext", ValueName: "fresh", ModelVar: "teletextFresh", Tolerance: 2, EnableVar: "teletext"},
			{Name: "frame-quality", EventName: "frame", ValueName: "quality", ModelVar: "quality", Threshold: 0.3, Tolerance: 3, EnableVar: "power",
				MaxSilence: 200 * sim.Millisecond},
			{Name: "swivel-angle", EventName: "swivel", ValueName: "angle", ModelVar: "swivelTarget", Threshold: 0.5, Tolerance: 60},
		},
	}
}

func buildMonitoredTV(t *testing.T, seed int64) (*sim.Kernel, *tvsim.TV, *core.Monitor, *[]wire.ErrorReport) {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := tvsim.Config{}
	tv := tvsim.New(k, cfg)
	model := tvsim.BuildSpecModel(k, cfg)
	// The spec model's expected frame quality: 1 when powered (partial model).
	// BuildSpecModel does not model quality; mirror power into it.
	model.OnConfig(func(region, leaf string) {
		if region == "power" {
			model.SetVar("quality", map[string]float64{"on": 1}[leaf])
		}
	})
	mon, err := core.NewMonitor(k, model, tvObservables())
	if err != nil {
		t.Fatal(err)
	}
	var reports []wire.ErrorReport
	mon.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	mon.AttachBus(tv.Bus())
	return k, tv, mon, &reports
}

func TestFaultFreeRunRaisesNoErrors(t *testing.T) {
	k, tv, mon, reports := buildMonitoredTV(t, 1)
	tv.PressKey(tvsim.KeyPower)
	keys := []tvsim.Key{
		tvsim.KeyVolUp, tvsim.KeyVolUp, tvsim.KeyMute, tvsim.KeyChUp,
		tvsim.KeyText, tvsim.KeyMenu, tvsim.KeyBack, tvsim.KeyDual,
		tvsim.KeySwivelRight, tvsim.KeyVolDown, tvsim.KeyText, tvsim.KeyText,
	}
	for _, key := range keys {
		tv.PressKey(key)
		k.Run(k.Now() + 300*sim.Millisecond)
	}
	k.Run(k.Now() + 2*sim.Second)
	if len(*reports) != 0 {
		t.Fatalf("fault-free run produced errors: %v", *reports)
	}
	if mon.Stats().Comparisons == 0 {
		t.Fatal("monitor did not compare anything")
	}
}

func TestDetectsAudioValueCorruption(t *testing.T) {
	k, tv, _, reports := buildMonitoredTV(t, 2)
	tv.PressKey(tvsim.KeyPower)
	k.Run(sim.Second)
	tv.Injector().Schedule(faults.Fault{
		ID: "skew", Kind: faults.ValueCorruption, Target: "audio",
		At: k.Now(), Param: -15,
	})
	k.Run(k.Now() + 100*sim.Millisecond)
	tv.PressKey(tvsim.KeyVolUp) // forces a fresh (corrupted) audio event
	k.Run(k.Now() + 100*sim.Millisecond)
	tv.PressKey(tvsim.KeyVolUp)
	k.Run(k.Now() + 100*sim.Millisecond)
	found := false
	for _, r := range *reports {
		if r.Observable == "audio-volume" {
			found = true
		}
	}
	if !found {
		t.Fatalf("audio corruption not detected: %v", *reports)
	}
}

func TestDetectsTeletextSyncLossViaFreshness(t *testing.T) {
	k, tv, _, reports := buildMonitoredTV(t, 3)
	tv.PressKey(tvsim.KeyPower)
	tv.PressKey(tvsim.KeyText)
	k.Run(sim.Second)
	if len(*reports) != 0 {
		t.Fatalf("healthy teletext flagged: %v", *reports)
	}
	tv.Injector().Schedule(faults.Fault{
		ID: "sync", Kind: faults.SyncLoss, Target: "teletext",
		At: k.Now(), Duration: 2 * sim.Second,
	})
	k.Run(k.Now() + 2*sim.Second)
	found := false
	for _, r := range *reports {
		if r.Observable == "teletext-fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sync loss not detected: %v", *reports)
	}
}

func TestDetectsVideoCrashViaSilence(t *testing.T) {
	k, tv, _, reports := buildMonitoredTV(t, 4)
	tv.PressKey(tvsim.KeyPower)
	k.Run(sim.Second)
	tv.Injector().Schedule(faults.Fault{
		ID: "crash", Kind: faults.TaskCrash, Target: "video", At: k.Now(),
	})
	k.Run(k.Now() + sim.Second)
	found := false
	for _, r := range *reports {
		if r.Detector == "silence" && r.Observable == "frame-quality" {
			found = true
		}
	}
	if !found {
		t.Fatalf("video crash not detected via silence: %v", *reports)
	}
}

func TestSwivelToleranceAvoidsFalsePositives(t *testing.T) {
	// The swivel takes 20ms per degree: its angle deviates from the target
	// for ~200ms after every keypress. The tolerance window must absorb it.
	k, tv, _, reports := buildMonitoredTV(t, 5)
	tv.PressKey(tvsim.KeyPower)
	for i := 0; i < 4; i++ {
		tv.PressKey(tvsim.KeySwivelRight)
		k.Run(k.Now() + 500*sim.Millisecond)
	}
	for _, r := range *reports {
		if r.Observable == "swivel-angle" {
			t.Fatalf("false positive on moving swivel: %+v", r)
		}
	}
}

func TestEventKindsRoundTripThroughMonitor(t *testing.T) {
	// State events are observations too: HandleOutput routes them to the
	// comparator path.
	k := sim.NewKernel(8)
	model := tvsim.BuildSpecModel(k, tvsim.Config{})
	mon, err := core.NewMonitor(k, model, core.Configuration{
		Observables: []core.Observable{
			{Name: "m", EventName: "mode:corrupt", ValueName: "mode", ModelVar: "nonexistent"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = mon.Start()
	var reports []wire.ErrorReport
	mon.OnError(func(r wire.ErrorReport) { reports = append(reports, r) })
	e := event.Event{Kind: event.State, Name: "mode:corrupt", Source: "x"}.With("mode", 3)
	mon.HandleOutput(e)
	if len(reports) != 1 {
		t.Fatalf("state-event comparison failed: %v", reports)
	}
}
