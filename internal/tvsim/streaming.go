package tvsim

import (
	"fmt"

	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
	"trader/internal/soc"
)

// This file builds the streaming side of the TV: the SoC processors and the
// periodic video/audio/teletext tasks. Frame quality is the user-visible
// consequence of resource behaviour: missed deadlines and bad input both
// degrade it, which is what the overload, stress-testing and load-balancing
// experiments measure.

func (tv *TV) buildStreaming() {
	for i := 0; i < tv.cfg.CPUCount; i++ {
		tv.cpus = append(tv.cpus, soc.NewCPU(tv.kernel, fmt.Sprintf("cpu%d", i)))
	}
	tv.mem = soc.NewMemController(tv.kernel, "ddr", 100*sim.Nanosecond, soc.FixedPriority{})
	tv.mem.Register(&soc.Requestor{Name: "video", Priority: 0, LatencyTarget: sim.Microsecond})
	tv.mem.Register(&soc.Requestor{Name: "audio", Priority: 1, LatencyTarget: sim.Microsecond})
	tv.mem.Register(&soc.Requestor{Name: "txt", Priority: 2, LatencyTarget: 10 * sim.Microsecond})

	tv.videoTask = &soc.Task{
		Name: "video-pipe", Period: tv.cfg.VideoPeriod, WCET: tv.cfg.VideoWCET,
		Priority: 1, Migratable: true,
		OnComplete: func(resp sim.Time) { tv.onFrame(resp, true) },
		OnMiss:     func(late sim.Time) { tv.frameMisses++ },
	}
	tv.audioTask = &soc.Task{
		Name: "audio-pipe", Period: tv.cfg.AudioPeriod, WCET: tv.cfg.AudioPeriod / 10,
		Priority: 0,
	}
	tv.txtTask = &soc.Task{
		Name: "txt-acquire", Period: tv.cfg.TeletextPeriod, WCET: tv.cfg.TeletextPeriod / 50,
		Priority:   2,
		OnComplete: func(resp sim.Time) { tv.onTeletextAcquire() },
	}
}

// startStreaming attaches the tasks when the TV powers on.
func (tv *TV) startStreaming() {
	if tv.videoTask.OnComplete == nil { // defensive; built in buildStreaming
		panic("tvsim: streaming not built")
	}
	cpu0 := tv.cpus[0]
	if !tv.attached(tv.videoTask) {
		cpu0.Attach(tv.videoTask)
	}
	if !tv.attached(tv.audioTask) {
		cpu0.Attach(tv.audioTask)
	}
	if !tv.attached(tv.txtTask) {
		cpu0.Attach(tv.txtTask)
	}
}

func (tv *TV) stopStreaming() {
	for _, cpu := range tv.cpus {
		for _, task := range []*soc.Task{tv.videoTask, tv.audioTask, tv.txtTask} {
			cpu.Detach(task)
		}
	}
}

func (tv *TV) attached(task *soc.Task) bool {
	for _, cpu := range tv.cpus {
		for _, t := range cpu.Tasks() {
			if t == task {
				return true
			}
		}
	}
	return false
}

// onFrame publishes one decoded video frame with its quality measure.
// Quality degrades with bad input signal (error correction can only partly
// compensate) and collapses when the pipeline misses deadlines.
func (tv *TV) onFrame(resp sim.Time, met bool) {
	if !tv.powered {
		return
	}
	q := tv.signalQ
	// Deadline slack maps to a quality penalty: a frame that needed the
	// whole period arrived too late for clean display.
	if resp > tv.cfg.VideoPeriod {
		q *= 0.3 // visibly broken frame
	} else if resp > tv.cfg.VideoPeriod*3/4 {
		q *= 0.8
	}
	// Issue a memory request per frame so the arbiter sees load.
	tv.mem.Request("video", nil)
	tv.publish(event.Output, "frame", "video",
		event.Value{Name: "quality", V: q},
		event.Value{Name: "channel", V: float64(tv.channel)})
}

// onTeletextAcquire advances the acquired page unless acquisition has lost
// sync with the transmitter (SyncLoss fault) or teletext is idle.
func (tv *TV) onTeletextAcquire() {
	if !tv.powered || !tv.teletext {
		return
	}
	tv.mem.Request("txt", nil)
	if tv.injector.AnyActive(faults.SyncLoss, "teletext") {
		// Acquisition silently stalls: the component *believes* it is still
		// acquiring (mode unchanged) but produces no new pages — the mode
		// inconsistency scenario of Sect. 4.3 [17].
		tv.cTxtAcq.SetMode("searching")
		tv.publishTeletext(false)
		return
	}
	if tv.cTxtAcq.Mode() != "acquiring" {
		tv.cTxtAcq.SetMode("acquiring")
	}
	tv.txtPage++
	tv.txtShown = tv.txtPage
	tv.publishTeletext(true)
}

func (tv *TV) publishTeletext(fresh bool) {
	tv.publish(event.Output, "teletext", "txt-disp",
		event.Value{Name: "page", V: float64(tv.txtShown)},
		event.Value{Name: "fresh", V: b2f(fresh)})
}

// wireFaults connects fault activations to erroneous TV state.
func (tv *TV) wireFaults() {
	inj := tv.injector
	inj.OnKind(faults.Overload, func(f faults.Fault, on bool) {
		if on {
			mul := f.Param
			if mul <= 1 {
				mul = 2
			}
			tv.overloadMul = mul
		} else {
			tv.overloadMul = 1
		}
		tv.applyVideoDemand()
	})
	inj.OnKind(faults.BadInput, func(f faults.Fault, on bool) {
		if on {
			q := f.Param
			if q <= 0 || q >= 1 {
				q = 0.5
			}
			tv.signalQ = q
			// Bad input needs intensive error correction: extra demand.
			tv.overloadMul *= 1.5
		} else {
			tv.signalQ = 1.0
			tv.overloadMul = 1.0
		}
		tv.applyVideoDemand()
	})
	inj.OnKind(faults.ValueCorruption, func(f faults.Fault, on bool) {
		if f.Target != "audio" {
			return
		}
		if on {
			skew := f.Param
			if skew == 0 {
				skew = -15
			}
			tv.volumeSkew = skew
		} else {
			tv.volumeSkew = 0
		}
		if tv.powered {
			tv.publishAudio()
		}
	})
	inj.OnKind(faults.ModeCorruption, func(f faults.Fault, on bool) {
		if !on {
			return // corruption persists until recovery resets the component
		}
		if c := tv.system.Component(f.Target); c != nil {
			c.SetMode("corrupt")
		}
	})
	inj.OnKind(faults.Deadlock, func(f faults.Fault, on bool) {
		if f.Target != "video" {
			return
		}
		if on {
			// The decode and render stages wedge waiting on each other: a
			// silent deadlock — tasks stop producing but every component
			// mode still claims "playing". Only output silence (the frame
			// observable's MaxSilence) can see it.
			tv.detachEverywhere(tv.videoTask)
		} else if tv.powered && !tv.attached(tv.videoTask) {
			tv.cpus[0].Attach(tv.videoTask)
		}
	})
	inj.OnKind(faults.TaskCrash, func(f faults.Fault, on bool) {
		switch f.Target {
		case "video":
			if on {
				tv.detachEverywhere(tv.videoTask)
				tv.cVideo.SetMode("dead")
			} else if tv.powered {
				tv.cpus[0].Attach(tv.videoTask)
				tv.cVideo.SetMode("playing")
			}
		case "teletext":
			if on {
				tv.detachEverywhere(tv.txtTask)
				tv.cTxtAcq.SetMode("dead")
			} else if tv.powered {
				tv.cpus[0].Attach(tv.txtTask)
				if tv.teletext {
					tv.cTxtAcq.SetMode("acquiring")
				} else {
					tv.cTxtAcq.SetMode("idle")
				}
			}
		case "swivel":
			if on {
				tv.cSwivel.SetMode("stuck")
			} else {
				tv.cSwivel.SetMode("idle")
				tv.stepSwivel()
			}
		}
	})
}

func (tv *TV) detachEverywhere(task *soc.Task) {
	for _, cpu := range tv.cpus {
		cpu.Detach(task)
	}
}

// applyVideoDemand updates the video task's WCET for the active multiplier.
// The change takes effect from the next released job.
func (tv *TV) applyVideoDemand() {
	tv.videoTask.WCET = sim.Time(float64(tv.cfg.VideoWCET) * tv.overloadMul)
}
