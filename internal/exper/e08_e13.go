package exper

import (
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/fmea"
	"trader/internal/inspect"
	"trader/internal/mediaplayer"
	"trader/internal/perception"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/stress"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// E8Perception reproduces the Sect. 4.6 finding: stated importance puts
// image quality on top, but observed irritation puts the internally-
// attributed swivel failure on top; removing the attribution term removes
// the flip.
func E8Perception(seed int64) (*Table, error) {
	panel := perception.NewPanel(seed, 50, perception.DefaultGroups)
	stated := panel.StatedImportanceRanking()
	failures := []perception.Failure{
		{Function: "image-quality", Severity: 0.6, Duration: 30 * sim.Second, Attribution: perception.External},
		{Function: "swivel", Severity: 0.6, Duration: 30 * sim.Second, Attribution: perception.Internal},
		{Function: "teletext", Severity: 0.6, Duration: 30 * sim.Second, Attribution: perception.Internal},
	}
	observed := panel.ObservedIrritationRanking(failures)
	// Ablation: no attribution discount.
	flat := perception.NewPanel(seed, 50, perception.DefaultGroups)
	for _, u := range flat.Users {
		u.ExternalDiscount = 1.0
	}
	ablated := flat.ObservedIrritationRanking(failures)

	t := &Table{
		ID:      "E8",
		Title:   "User perception (Sect. 4.6): failure attribution dominates irritation",
		Columns: []string{"metric", "image-quality", "swivel"},
	}
	t.AddRow("stated importance rank", f("%d", stated.RankOf("image-quality")), f("%d", stated.RankOf("swivel")))
	t.AddRow("observed irritation rank", f("%d", observed.RankOf("image-quality")), f("%d", observed.RankOf("swivel")))
	t.AddRow("observed rank w/o attribution term", f("%d", ablated.RankOf("image-quality")), f("%d", ablated.RankOf("swivel")))
	t.Notes = append(t.Notes,
		"paper: users rank both as important, tolerate bad image quality (external attribution) but are irritated by a failing swivel",
		"expected shape: ranks flip between stated and observed; ablating attribution restores the stated order")
	return t, nil
}

// E9Stress sweeps the CPU eater on the TV (Sect. 4.7, TASS): overload
// behaviour of the streaming side and what the awareness monitor sees.
func E9Stress(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "CPU-eater stress testing (Sect. 4.7): overload behaviour and monitor detections",
		Columns: []string{"eaten CPU fraction", "frame miss rate", "mean frame quality", "monitor errors"},
	}
	for _, frac := range []float64{0, 0.2, 0.35, 0.5, 0.65} {
		k, tv, mon, err := NewMonitoredTV(seed, tvsim.Config{})
		if err != nil {
			return nil, err
		}
		errs := 0
		mon.OnError(func(wire.ErrorReport) { errs++ })
		tv.PressKey(tvsim.KeyPower)
		k.Run(sim.Second)
		var eater *stress.CPUEater
		if frac > 0 {
			eater = stress.NewCPUEater(tv.CPUs()[0], frac, 0)
			eater.Activate()
		}
		var qSum float64
		var qN int
		tv.Bus().Subscribe("frame", func(e event.Event) {
			q, _ := e.Get("quality")
			qSum += q
			qN++
		})
		k.Run(k.Now() + 5*sim.Second)
		if eater != nil {
			eater.Deactivate()
		}
		var completed, missed uint64
		for _, c := range tv.CPUs() {
			completed += c.Stats().JobsCompleted
			missed += c.Stats().DeadlineMisses
		}
		missRate := 0.0
		if completed > 0 {
			missRate = float64(missed) / float64(completed)
		}
		meanQ := 0.0
		if qN > 0 {
			meanQ = qSum / float64(qN)
		}
		t.AddRow(f("%.2f", frac), f("%.4f", missRate), f("%.3f", meanQ), f("%d", errs))
	}
	t.Notes = append(t.Notes,
		"paper: stress testing by taking away shared resources 'has shown to be very useful in the TV domain'",
		"expected shape: miss rate and monitor detections grow with eaten fraction; quality degrades monotonically")
	return t, nil
}

// E10WarningPriority evaluates warning prioritization by static profiling
// (Sect. 4.7 / Boogerd & Moonen): precision@k against the severity-only
// baseline on synthetic programs with known ground truth.
func E10WarningPriority(seed int64) (*Table, error) {
	const runs = 10
	ks := []int{10, 20, 50}
	sumPrio := make([]float64, len(ks))
	sumBase := make([]float64, len(ks))
	for r := int64(0); r < runs; r++ {
		sp := inspect.GenerateProgram(seed+r, 6, 30, 200)
		like := sp.Graph.Likelihood()
		prio := inspect.RankByLikelihood(sp.Warnings, like)
		base := inspect.RankBySeverity(sp.Warnings)
		for i, k := range ks {
			sumPrio[i] += inspect.PrecisionAt(prio, k)
			sumBase[i] += inspect.PrecisionAt(base, k)
		}
	}
	t := &Table{
		ID:      "E10",
		Title:   "Warning prioritization by static profiling (Sect. 4.7): precision@k over 10 programs",
		Columns: []string{"k", "severity-only baseline", "severity x likelihood"},
	}
	for i, k := range ks {
		t.AddRow(f("%d", k), f("%.3f", sumBase[i]/runs), f("%.3f", sumPrio[i]/runs))
	}
	t.Notes = append(t.Notes,
		"paper: static profiling prioritizes the warnings of an inspection tool such as QA-C",
		"expected shape: prioritized precision beats the baseline at every k")
	return t, nil
}

// E11ModelQuality reproduces the Sect. 4.2 modelling-error experience:
// bounded exploration of a seeded feature-interaction bug versus the fixed
// model, plus the spec model's invariants over directed scripts.
func E11ModelQuality(seed int64) (*Table, error) {
	opts := statemachine.ExploreOptions{Alphabet: []string{"menu", "text"}}
	buggy := osdFragment(true).Explore(opts)
	fixed := osdFragment(false).Explore(opts)

	countKind := func(res statemachine.ExploreResult, kind string) int {
		n := 0
		for _, v := range res.Violations {
			if v.Kind == kind {
				n++
			}
		}
		return n
	}
	t := &Table{
		ID:      "E11",
		Title:   "Model quality via exploration (Sect. 4.2): seeded feature-interaction bug",
		Columns: []string{"model", "states", "invariant violations", "unreachable states"},
	}
	t.AddRow("buggy (missing suppression guards)", f("%d", buggy.StatesVisited), f("%d", countKind(buggy, "invariant")), f("%d", len(buggy.Unreachable)))
	t.AddRow("fixed", f("%d", fixed.StatesVisited), f("%d", countKind(fixed, "invariant")), f("%d", len(fixed.Unreachable)))

	// Full TV spec model: invariants along directed interaction scripts.
	scripts := [][]tvsim.Key{
		{tvsim.KeyPower, tvsim.KeyText, tvsim.KeyMenu, tvsim.KeyText, tvsim.KeyBack, tvsim.KeyDual, tvsim.KeyText},
		{tvsim.KeyPower, tvsim.KeyDual, tvsim.KeyText, tvsim.KeyMenu, tvsim.KeyMenu, tvsim.KeyPower},
	}
	violations := 0
	for _, script := range scripts {
		m := tvsim.BuildSpecModel(nil, tvsim.Config{})
		mustModelStart(m)
		for _, key := range script {
			ev := event.Event{Kind: event.Input, Name: "key"}.With("key", float64(key))
			if err := m.Dispatch(ev); err != nil {
				violations++
			}
		}
	}
	t.AddRow("full TV spec model (scripted)", "-", f("%d", violations), "-")
	t.Notes = append(t.Notes,
		"paper: 'it was very easy to make modeling errors ... many interactions between features'; model checking and test scripts improve quality",
		"expected shape: exploration finds the seeded bug, the fixed model and the shipped spec model are clean")
	return t, nil
}

// E12MediaPlayer runs the Sect. 5 future-work experiment: awareness on the
// media player for a correctness failure (A/V drift) and a performance
// failure (stall).
func E12MediaPlayer(seed int64) (*Table, error) {
	run := func(fault *faults.Fault) (detected bool, latency sim.Time, falsePos int, err error) {
		k := sim.NewKernel(seed)
		p := mediaplayer.New(k, mediaplayer.Config{})
		mon, err := mediaplayer.NewMonitor(k, mediaplayer.Config{})
		if err != nil {
			return false, 0, 0, err
		}
		mon.AttachBus(p.Bus())
		var faultAt sim.Time
		if fault != nil {
			faultAt = fault.At
			p.Injector().Schedule(*fault)
		}
		mon.OnError(func(r wire.ErrorReport) {
			if fault != nil && r.At >= faultAt {
				if !detected {
					detected = true
					latency = r.At - faultAt
				}
			} else {
				falsePos++
			}
		})
		p.Do(mediaplayer.CmdPlay)
		k.Run(6 * sim.Second)
		return detected, latency, falsePos, nil
	}
	t := &Table{
		ID:      "E12",
		Title:   "Media-player awareness (Sect. 5): correctness (drift) and performance (stall)",
		Columns: []string{"scenario", "detected", "latency", "false positives"},
	}
	_, _, fp, err := run(nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("healthy playback", "-", "-", f("%d", fp))
	det, lat, _, err := run(&faults.Fault{ID: "stall", Kind: faults.Deadlock, Target: "demuxer", At: 2 * sim.Second, Duration: 2 * sim.Second})
	if err != nil {
		return nil, err
	}
	t.AddRow("demuxer stall (performance)", f("%v", det), lat.String(), "-")
	det, lat, _, err = run(&faults.Fault{ID: "drift", Kind: faults.ValueCorruption, Target: "audio-clock", At: 2 * sim.Second, Param: 1.1})
	if err != nil {
		return nil, err
	}
	t.AddRow("audio clock drift (correctness)", f("%v", det), lat.String(), "-")
	t.Notes = append(t.Notes,
		"paper: MPlayer experiments investigate 'both correctness and performance issues'",
		"expected shape: both failure classes detected; healthy playback raises nothing")
	return t, nil
}

// E13FMEA runs the architecture-level reliability analysis (Sect. 4.7 /
// [18]) and cross-checks its component ranking against fault-injection
// ground truth from the simulator.
func E13FMEA(seed int64) (*Table, error) {
	arch := fmea.TVArchitecture()
	byComp := arch.CriticalityByComponent()

	// Ground truth: measured user-visible failure seconds per subsystem
	// from targeted injections on the simulator.
	measure := func(fault faults.Fault, fn string) float64 {
		k := sim.NewKernel(seed)
		tv := tvsim.New(k, tvsim.Config{})
		meter := newFailureMeter(k, tv)
		tv.Injector().Schedule(fault)
		tv.PressKey(tvsim.KeyPower)
		tv.PressKey(tvsim.KeyText)
		k.Run(10 * sim.Second)
		return meter.accum[fn].Seconds()
	}
	videoSecs := measure(faults.Fault{ID: "c", Kind: faults.TaskCrash, Target: "video", At: 2 * sim.Second}, "image-quality")
	txtSecs := measure(faults.Fault{ID: "s", Kind: faults.SyncLoss, Target: "teletext", At: 2 * sim.Second, Duration: 8 * sim.Second}, "teletext")

	t := &Table{
		ID:      "E13",
		Title:   "Architecture-level reliability analysis (Sect. 4.7): FMEA criticality vs injection ground truth",
		Columns: []string{"component", "aggregate RPN", "measured exposure (s, targeted injection)"},
	}
	for _, e := range byComp {
		measured := "-"
		switch e.Component {
		case "video":
			measured = f("%.1f", videoSecs)
		case "txt-acq", "txt-disp":
			measured = f("%.1f", txtSecs)
		}
		t.AddRow(e.Component, f("%.4f", e.RPN), measured)
	}
	t.Notes = append(t.Notes,
		"paper: FMEA extended to the software architecture level for reliability analysis",
		"expected shape: the streaming path dominates RPN and also dominates measured exposure under injection")
	return t, nil
}

// osdFragment is E11's seeded feature-interaction model: the on-screen
// menu and teletext regions, with or without the guards that keep them
// mutually exclusive. It returns the started model.
func osdFragment(buggy bool) *statemachine.Model {
	osd := statemachine.NewRegion("osd")
	guardMenu := func(c *statemachine.Context) bool { return c.Get("txt") == 0 }
	if buggy {
		guardMenu = nil
	}
	osd.Add(&statemachine.State{Name: "none", Transitions: []statemachine.Transition{
		{Event: "menu", Guard: guardMenu, Target: "menuOn",
			Action: func(c *statemachine.Context) { c.Set("menu", 1) }}}})
	osd.Add(&statemachine.State{Name: "menuOn", Transitions: []statemachine.Transition{
		{Event: "menu", Target: "none",
			Action: func(c *statemachine.Context) { c.Set("menu", 0) }}}})
	txt := statemachine.NewRegion("teletext")
	guardTxt := func(c *statemachine.Context) bool { return c.Get("menu") == 0 }
	if buggy {
		guardTxt = nil
	}
	txt.Add(&statemachine.State{Name: "off", Transitions: []statemachine.Transition{
		{Event: "text", Guard: guardTxt, Target: "onT",
			Action: func(c *statemachine.Context) { c.Set("txt", 1) }}}})
	txt.Add(&statemachine.State{Name: "onT", Transitions: []statemachine.Transition{
		{Event: "text", Target: "off",
			Action: func(c *statemachine.Context) { c.Set("txt", 0) }}}})
	spec := statemachine.MustDefine("osd-fragment", []string{"menu", "txt"}, osd, txt)
	spec.AddInvariant("menu-suppresses-teletext", func(m *statemachine.Model) bool {
		return !(m.Var("menu") == 1 && m.Var("txt") == 1)
	})
	m := spec.New(nil)
	mustModelStart(m)
	return m
}
