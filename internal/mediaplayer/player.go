// Package mediaplayer simulates an MPlayer-like software media player — the
// second System Under Observation of the paper (Sect. 5: "the framework is
// used for awareness experiments with the open source media player MPlayer,
// investigating both correctness and performance issues"). The pipeline is
// demuxer → audio/video decoders → A/V sync → outputs; its observables are
// the rendered frame rate (performance) and the audio/video clock drift
// (correctness). Faults: a demuxer stall freezes playback, and an audio
// clock drift desynchronises lip-sync.
package mediaplayer

import (
	"fmt"
	"sync"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
	"trader/internal/statemachine"
)

// Cmd is a player command.
type Cmd int

// Player commands.
const (
	CmdPlay Cmd = iota
	CmdPause
	CmdStop
	numCmds
)

var cmdNames = [...]string{"play", "pause", "stop"}

// String names the command.
func (c Cmd) String() string {
	if c < 0 || int(c) >= len(cmdNames) {
		return fmt.Sprintf("cmd(%d)", int(c))
	}
	return cmdNames[c]
}

// Config sizes the player.
type Config struct {
	// FramePeriod is the video frame period (default 40ms → 25 fps).
	FramePeriod sim.Time
	// ReportEvery is the A/V status reporting period (default 200ms; keep
	// it a multiple of FramePeriod so the healthy frame rate is exact).
	ReportEvery sim.Time
}

func (c *Config) fill() {
	if c.FramePeriod <= 0 {
		c.FramePeriod = 40 * sim.Millisecond
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 200 * sim.Millisecond
	}
}

// Player is the simulated media player.
type Player struct {
	cfg      Config
	kernel   *sim.Kernel
	bus      *event.Bus
	injector *faults.Injector

	playing bool
	paused  bool

	videoClock sim.Time // media time of the last rendered video frame
	audioClock sim.Time // media time of the audio output
	frames     uint64
	lastFrames uint64
	seq        uint64

	frameRep  *sim.Repeater
	reportRep *sim.Repeater
}

// New creates a player with its own bus and fault injector.
func New(kernel *sim.Kernel, cfg Config) *Player {
	cfg.fill()
	p := &Player{
		cfg: cfg, kernel: kernel,
		bus:      event.NewBus(),
		injector: faults.NewInjector(kernel),
	}
	return p
}

// Bus returns the observation bus.
func (p *Player) Bus() *event.Bus { return p.bus }

// Injector returns the fault injector.
func (p *Player) Injector() *faults.Injector { return p.injector }

// Playing reports whether playback is active (and not paused).
func (p *Player) Playing() bool { return p.playing && !p.paused }

func (p *Player) publish(kind event.Kind, name string, vals ...event.Value) {
	p.seq++
	p.bus.Publish(event.Event{
		Kind: kind, Name: name, Source: "player", At: p.kernel.Now(),
		Seq: p.seq, Values: vals,
	})
}

// Do executes a command.
func (p *Player) Do(c Cmd) {
	p.publish(event.Input, "cmd", event.Value{Name: "cmd", V: float64(c)})
	switch c {
	case CmdPlay:
		if p.playing && p.paused {
			p.paused = false
			return
		}
		if p.playing {
			return
		}
		p.playing = true
		p.paused = false
		p.videoClock, p.audioClock = 0, 0
		p.frames, p.lastFrames = 0, 0
		// Render the first frame immediately so every report window holds
		// a full complement of frames (the repeater fires after one period).
		p.tickFrame()
		p.frameRep = p.kernel.Every(p.cfg.FramePeriod, p.tickFrame)
		p.reportRep = p.kernel.Every(p.cfg.ReportEvery, p.report)
	case CmdPause:
		if p.playing {
			p.paused = true
		}
	case CmdStop:
		p.playing = false
		p.paused = false
		if p.frameRep != nil {
			p.frameRep.Stop()
			p.frameRep = nil
		}
		if p.reportRep != nil {
			p.reportRep.Stop()
			p.reportRep = nil
		}
	}
}

// tickFrame advances the pipeline by one frame period.
func (p *Player) tickFrame() {
	if !p.Playing() {
		return
	}
	if p.injector.AnyActive(faults.Deadlock, "demuxer") {
		// Demuxer stall: no packets, no frames, clocks freeze — the
		// performance failure (playback freezes, fps drops to 0).
		return
	}
	p.videoClock += p.cfg.FramePeriod
	p.frames++
	// Audio clock normally tracks the video clock; a ValueCorruption on
	// "audio-clock" makes it run fast/slow — the lip-sync correctness bug.
	step := float64(p.cfg.FramePeriod)
	if p.injector.AnyActive(faults.ValueCorruption, "audio-clock") {
		for _, f := range p.injector.Faults() {
			if f.Kind == faults.ValueCorruption && f.Target == "audio-clock" && p.injector.Active(f.ID) {
				step *= f.Param
			}
		}
	}
	p.audioClock += sim.Time(step)
}

// report publishes the A/V status observable.
func (p *Player) report() {
	if !p.Playing() {
		return
	}
	driftMs := float64(p.audioClock-p.videoClock) / float64(sim.Millisecond)
	window := p.frames - p.lastFrames
	p.lastFrames = p.frames
	fps := float64(window) / p.cfg.ReportEvery.Seconds()
	p.publish(event.Output, "av",
		event.Value{Name: "fps", V: fps},
		event.Value{Name: "drift", V: driftMs},
	)
}

// BuildSpecModel returns the player's specification model: playback state
// driven by commands; expected fps while playing; expected drift 0.
// The default configuration's Spec is defined once per process.
func BuildSpecModel(kernel *sim.Kernel, cfg Config) *statemachine.Model {
	cfg.fill()
	var def Config
	def.fill()
	if cfg.FramePeriod == def.FramePeriod {
		return defaultSpec().New(kernel)
	}
	return defineSpec(cfg).New(kernel)
}

// defaultSpec is the player spec of the default configuration, defined on
// first use.
var defaultSpec = sync.OnceValue(func() *statemachine.Spec {
	var def Config
	def.fill()
	return defineSpec(def)
})

// defineSpec compiles the player spec model for a filled cfg; only
// FramePeriod reaches it.
func defineSpec(cfg Config) *statemachine.Spec {
	cmd := func(c Cmd) func(*statemachine.Context) bool {
		return func(ctx *statemachine.Context) bool {
			v, ok := ctx.Event.Get("cmd")
			return ok && Cmd(v) == c
		}
	}
	expectedFPS := 1 / cfg.FramePeriod.Seconds()
	setPlaying := func(on float64) func(*statemachine.Context) {
		return func(c *statemachine.Context) {
			c.Set("playing", on)
			c.Set("fps", on*expectedFPS)
			c.Set("drift", 0)
		}
	}
	r := statemachine.NewRegion("playback")
	r.Add(&statemachine.State{
		Name:  "stopped",
		Entry: setPlaying(0),
		Transitions: []statemachine.Transition{
			{Event: "cmd", Guard: cmd(CmdPlay), Target: "playing"},
		},
	})
	r.Add(&statemachine.State{
		Name:  "playing",
		Entry: setPlaying(1),
		Transitions: []statemachine.Transition{
			{Event: "cmd", Guard: cmd(CmdPause), Target: "pausedS"},
			{Event: "cmd", Guard: cmd(CmdStop), Target: "stopped"},
		},
	})
	r.Add(&statemachine.State{
		Name:  "pausedS",
		Entry: setPlaying(0),
		Transitions: []statemachine.Transition{
			{Event: "cmd", Guard: cmd(CmdPlay), Target: "playing"},
			{Event: "cmd", Guard: cmd(CmdStop), Target: "stopped"},
		},
	})
	return statemachine.MustDefine("player-spec", []string{"playing", "fps", "drift"}, r)
}

// Observables is the reference monitor configuration for the player: the
// rendered frame rate (performance, with a stall caught as silence) and the
// A/V drift (correctness), both compared only while playing.
func Observables() core.Configuration {
	return core.Configuration{Observables: []core.Observable{
		{Name: "fps", EventName: "av", ValueName: "fps", ModelVar: "fps",
			Threshold: 5, Tolerance: 1, EnableVar: "playing", MaxSilence: 500 * sim.Millisecond},
		{Name: "av-drift", EventName: "av", ValueName: "drift", ModelVar: "drift",
			Threshold: 80, Tolerance: 1, EnableVar: "playing"},
	}}
}

// NewMonitor builds the reference awareness monitor for a player configured
// by cfg, on kernel k: the spec model compared against Observables, started.
func NewMonitor(k *sim.Kernel, cfg Config) (*core.Monitor, error) {
	mon, err := core.NewMonitor(k, BuildSpecModel(k, cfg), Observables())
	if err != nil {
		return nil, err
	}
	if err := mon.Start(); err != nil {
		return nil, err
	}
	return mon, nil
}
