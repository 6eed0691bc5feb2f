// Package tvsim simulates a high-end television — the System Under
// Observation of the Trader case studies. The simulator reproduces the
// observable surface the paper's awareness experiments need:
//
//   - remote-control input (key presses),
//   - user-visible outputs (sound level, video frames with a quality
//     measure, on-screen displays, the motorised swivel),
//   - internal component modes (published as state events, Sect. 4.1),
//   - a streaming side scheduled on the soc substrate (video/audio/teletext
//     tasks on CPUs, so overload and migration behave like the paper's
//     platform), and
//   - fault-injection hooks for every fault class of the case studies
//     (teletext sync loss, mode corruption, task crash, overload, bad input,
//     value corruption).
//
// The control behaviour implements the feature interactions the paper calls
// out (dual screen × teletext × menu OSD suppressing each other, child lock,
// sleep timer). tvsim also builds the corresponding *specification model*
// (model.go) used by the awareness monitor; in fault-free runs the TV and
// the model agree on every observable.
package tvsim

import (
	"fmt"

	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/koala"
	"trader/internal/sim"
	"trader/internal/soc"
)

// Key is a remote-control key.
type Key int

// Remote-control keys.
const (
	KeyPower Key = iota
	KeyVolUp
	KeyVolDown
	KeyMute
	KeyChUp
	KeyChDown
	KeyText
	KeyMenu
	KeyDual
	KeySleep
	KeyLock
	KeySwivelLeft
	KeySwivelRight
	KeyOK
	KeyBack
	// KeySource cycles the input source: broadcast tuner ↔ USB photo
	// browsing (the media-convergence features the paper's introduction
	// lists as complexity drivers: "photo browsing, MP3 playing, USB").
	KeySource
	numKeys
)

var keyNames = [...]string{
	"power", "vol+", "vol-", "mute", "ch+", "ch-", "text", "menu",
	"dual", "sleep", "lock", "swivel-left", "swivel-right", "ok", "back",
	"source",
}

// String returns the key legend.
func (k Key) String() string {
	if k < 0 || int(k) >= len(keyNames) {
		return fmt.Sprintf("key(%d)", int(k))
	}
	return keyNames[k]
}

// Config sizes the simulated platform.
type Config struct {
	// CPUCount is the number of processors (default 2).
	CPUCount int
	// VideoPeriod is the frame period (default 40ms → 25 fps).
	VideoPeriod sim.Time
	// VideoWCET is the nominal per-frame demand (default 18ms).
	VideoWCET sim.Time
	// TeletextPeriod is the page-acquisition period (default 200ms).
	TeletextPeriod sim.Time
	// AudioPeriod is the audio processing period (default 10ms).
	AudioPeriod sim.Time
	// SleepDuration is the sleep-timer duration (default 2s of virtual
	// time, scaled down from 15 min so experiments stay small).
	SleepDuration sim.Time
	// MaxChannel is the highest channel number (default 99).
	MaxChannel int
	// LockedAbove marks channels above this number as blocked when the
	// child lock is active (default 50).
	LockedAbove int
	// PhotoCount is the number of photos on the simulated USB stick
	// (default 20).
	PhotoCount int
}

func (c *Config) fill() {
	if c.CPUCount <= 0 {
		c.CPUCount = 2
	}
	if c.VideoPeriod <= 0 {
		c.VideoPeriod = 40 * sim.Millisecond
	}
	if c.VideoWCET <= 0 {
		c.VideoWCET = 18 * sim.Millisecond
	}
	if c.TeletextPeriod <= 0 {
		c.TeletextPeriod = 200 * sim.Millisecond
	}
	if c.AudioPeriod <= 0 {
		c.AudioPeriod = 10 * sim.Millisecond
	}
	if c.SleepDuration <= 0 {
		c.SleepDuration = 2 * sim.Second
	}
	if c.MaxChannel <= 0 {
		c.MaxChannel = 99
	}
	if c.LockedAbove <= 0 {
		c.LockedAbove = 50
	}
	if c.PhotoCount <= 0 {
		c.PhotoCount = 20
	}
}

// TV is the simulated television.
type TV struct {
	cfg      Config
	kernel   *sim.Kernel
	bus      *event.Bus
	system   *koala.System
	injector *faults.Injector

	cpus []*soc.CPU
	mem  *soc.MemController

	// control state (the SUO's real state; the spec model mirrors it)
	powered  bool
	volume   int
	muted    bool
	channel  int
	teletext bool
	menu     bool
	dual     bool
	locked   bool
	source   int // 0 = tuner (broadcast), 1 = USB photo browsing
	photo    int // current photo index when source is USB
	sleepEv  *sim.Event
	angle    int // swivel angle, degrees

	// streaming state
	videoTask   *soc.Task
	audioTask   *soc.Task
	txtTask     *soc.Task
	signalQ     float64 // 0..1 input signal quality (BadInput reduces it)
	overloadMul float64 // execution-demand multiplier (Overload fault)
	txtPage     int     // last acquired teletext page
	txtShown    int     // page currently displayed
	frameMisses uint64

	// components (for modes)
	cTuner, cVideo, cAudio *koala.Component
	cTxtAcq, cTxtDisp      *koala.Component
	cOSD, cSwivel          *koala.Component

	// value-corruption state
	volumeSkew float64

	// swivel motion
	swivelTarget int

	seq uint64
	// KeysHandled counts accepted key presses.
	KeysHandled uint64
}

// New creates a TV on the kernel with its own bus and fault injector.
func New(kernel *sim.Kernel, cfg Config) *TV {
	cfg.fill()
	tv := &TV{
		cfg: cfg, kernel: kernel,
		bus:         event.NewBus(),
		injector:    faults.NewInjector(kernel),
		channel:     1,
		photo:       1,
		volume:      20,
		signalQ:     1.0,
		overloadMul: 1.0,
	}
	tv.system = koala.NewSystem(kernel, "tv", tv.bus)
	tv.buildComponents()
	tv.buildStreaming()
	tv.wireFaults()
	return tv
}

// Bus returns the observation bus carrying all TV events.
func (tv *TV) Bus() *event.Bus { return tv.bus }

// Injector returns the fault injector (ground truth for experiments).
func (tv *TV) Injector() *faults.Injector { return tv.injector }

// CPUs returns the SoC processors.
func (tv *TV) CPUs() []*soc.CPU { return tv.cpus }

func (tv *TV) buildComponents() {
	s := tv.system
	tv.cTuner = s.AddComponent("tuner")
	tv.cVideo = s.AddComponent("video")
	tv.cAudio = s.AddComponent("audio")
	tv.cTxtAcq = s.AddComponent("txt-acq")
	tv.cTxtDisp = s.AddComponent("txt-disp")
	tv.cOSD = s.AddComponent("osd")
	tv.cSwivel = s.AddComponent("swivel")

	tv.cTuner.SetMode("standby")
	tv.cVideo.SetMode("standby")
	tv.cAudio.SetMode("standby")
	tv.cTxtAcq.SetMode("idle")
	tv.cTxtDisp.SetMode("hidden")
	tv.cOSD.SetMode("none")
	tv.cSwivel.SetMode("idle")
}

// publish emits an event on the bus.
func (tv *TV) publish(kind event.Kind, name, source string, vals ...event.Value) {
	tv.seq++
	e := event.Event{Kind: kind, Name: name, Source: source, At: tv.kernel.Now(), Seq: tv.seq, Values: vals}
	tv.bus.Publish(e)
}

// PressKey delivers one remote-control key to the TV.
func (tv *TV) PressKey(k Key) {
	tv.publish(event.Input, "key", "remote", event.Value{Name: "key", V: float64(k)})
	tv.KeysHandled++
	if !tv.powered {
		if k == KeyPower {
			tv.setPower(true)
		}
		return
	}
	switch k {
	case KeyPower:
		tv.setPower(false)
	case KeyVolUp:
		tv.setVolume(tv.volume+5, false)
	case KeyVolDown:
		tv.setVolume(tv.volume-5, false)
	case KeyMute:
		tv.muted = !tv.muted
		tv.cAudio.SetMode(map[bool]string{true: "muted", false: "active"}[tv.muted])
		tv.publishAudio()
	case KeyChUp:
		if tv.source == 1 {
			tv.stepPhoto(+1)
		} else {
			tv.setChannel(tv.channel + 1)
		}
	case KeyChDown:
		if tv.source == 1 {
			tv.stepPhoto(-1)
		} else {
			tv.setChannel(tv.channel - 1)
		}
	case KeyText:
		tv.toggleTeletext()
	case KeySource:
		tv.toggleSource()
	case KeyMenu:
		tv.toggleMenu()
	case KeyDual:
		tv.toggleDual()
	case KeySleep:
		tv.armSleep()
	case KeyLock:
		tv.locked = !tv.locked
	case KeySwivelLeft:
		tv.moveSwivel(-10)
	case KeySwivelRight:
		tv.moveSwivel(+10)
	case KeyOK, KeyBack:
		if tv.menu && k == KeyBack {
			tv.toggleMenu()
		}
	}
}

func (tv *TV) setPower(on bool) {
	tv.powered = on
	if on {
		if tv.source == 0 {
			tv.cTuner.SetMode("tuned")
		} else {
			tv.cTuner.SetMode("bypassed")
		}
		tv.cVideo.SetMode("playing")
		tv.cAudio.SetMode(map[bool]string{true: "muted", false: "active"}[tv.muted])
		tv.startStreaming()
	} else {
		// Power off resets transient OSD/teletext/dual state.
		tv.teletext = false
		tv.menu = false
		tv.dual = false
		if tv.sleepEv != nil {
			tv.sleepEv.Cancel()
			tv.sleepEv = nil
		}
		tv.cTuner.SetMode("standby")
		tv.cVideo.SetMode("standby")
		tv.cAudio.SetMode("standby")
		tv.cTxtAcq.SetMode("idle")
		tv.cTxtDisp.SetMode("hidden")
		tv.cOSD.SetMode("none")
		tv.stopStreaming()
	}
	tv.publish(event.Output, "power", "tv", event.Value{Name: "on", V: b2f(on)})
	tv.publishAudio()
	tv.publishScreen()
}

func (tv *TV) setVolume(v int, internal bool) {
	if v < 0 {
		v = 0
	}
	if v > 100 {
		v = 100
	}
	tv.volume = v
	if !internal {
		tv.muted = false
		tv.cAudio.SetMode("active")
	}
	tv.publishAudio()
}

func (tv *TV) setChannel(ch int) {
	if ch < 1 {
		ch = tv.cfg.MaxChannel
	}
	if ch > tv.cfg.MaxChannel {
		ch = 1
	}
	if tv.locked && ch > tv.cfg.LockedAbove {
		// Child lock blocks the zap; OSD feedback only.
		tv.publish(event.Output, "osd", "osd", event.Value{Name: "blocked", V: 1})
		return
	}
	tv.channel = ch
	tv.txtPage = 0 // new channel: teletext re-acquires
	tv.txtShown = 0
	tv.cTuner.SetMode("tuned")
	tv.publishScreen()
}

// stepPhoto navigates the USB photo browser with wrap-around.
func (tv *TV) stepPhoto(dir int) {
	tv.photo += dir
	if tv.photo < 1 {
		tv.photo = tv.cfg.PhotoCount
	}
	if tv.photo > tv.cfg.PhotoCount {
		tv.photo = 1
	}
	tv.publishScreen()
}

// toggleSource switches between the broadcast tuner and the USB photo
// browser. Teletext and dual screen are broadcast features: switching away
// closes them; the photo browser restarts at the first photo.
func (tv *TV) toggleSource() {
	if tv.source == 0 {
		tv.source = 1
		tv.photo = 1
		tv.teletext = false
		tv.dual = false
		tv.cTxtAcq.SetMode("idle")
		tv.cTxtDisp.SetMode("hidden")
		tv.cTuner.SetMode("bypassed")
	} else {
		tv.source = 0
		tv.cTuner.SetMode("tuned")
	}
	tv.publishScreen()
}

func (tv *TV) toggleTeletext() {
	if tv.menu {
		return // menu suppresses teletext
	}
	if tv.source != 0 {
		return // teletext needs the broadcast tuner
	}
	tv.teletext = !tv.teletext
	if tv.teletext {
		tv.dual = false // teletext forces single screen
		tv.cTxtAcq.SetMode("acquiring")
		tv.cTxtDisp.SetMode("visible")
	} else {
		tv.cTxtAcq.SetMode("idle")
		tv.cTxtDisp.SetMode("hidden")
	}
	tv.publishScreen()
}

func (tv *TV) toggleMenu() {
	tv.menu = !tv.menu
	if tv.menu && tv.teletext {
		// Menu suppresses teletext (the feature interaction of Sect. 4.2).
		tv.teletext = false
		tv.cTxtAcq.SetMode("idle")
		tv.cTxtDisp.SetMode("hidden")
	}
	tv.cOSD.SetMode(map[bool]string{true: "menu", false: "none"}[tv.menu])
	tv.publishScreen()
}

func (tv *TV) toggleDual() {
	if tv.source != 0 {
		return // dual screen composes two broadcast pictures
	}
	if tv.teletext {
		// Teletext occupies the screen: dual request closes teletext first.
		tv.teletext = false
		tv.cTxtAcq.SetMode("idle")
		tv.cTxtDisp.SetMode("hidden")
	}
	tv.dual = !tv.dual
	tv.publishScreen()
}

func (tv *TV) armSleep() {
	if tv.sleepEv != nil {
		tv.sleepEv.Cancel()
	}
	tv.sleepEv = tv.kernel.Schedule(tv.cfg.SleepDuration, func() {
		tv.sleepEv = nil
		if tv.powered {
			tv.setPower(false)
		}
	})
	tv.publish(event.Output, "osd", "osd", event.Value{Name: "sleep", V: 1})
}

func (tv *TV) moveSwivel(delta int) {
	tv.swivelTarget += delta
	if tv.swivelTarget > 45 {
		tv.swivelTarget = 45
	}
	if tv.swivelTarget < -45 {
		tv.swivelTarget = -45
	}
	tv.cSwivel.SetMode("moving")
	tv.stepSwivel()
}

// stepSwivel moves the motor 1 degree per 20ms until the target is reached.
// A crashed swivel (TaskCrash on "swivel") stops moving — the failure users
// attribute to the product and find most irritating (Sect. 4.6).
func (tv *TV) stepSwivel() {
	if tv.injector.AnyActive(faults.TaskCrash, "swivel") {
		tv.cSwivel.SetMode("stuck")
		return
	}
	if tv.angle == tv.swivelTarget {
		tv.cSwivel.SetMode("idle")
		tv.publishSwivel()
		return
	}
	if tv.angle < tv.swivelTarget {
		tv.angle++
	} else {
		tv.angle--
	}
	tv.publishSwivel()
	tv.kernel.Schedule(20*sim.Millisecond, func() { tv.stepSwivel() })
}

func (tv *TV) publishSwivel() {
	tv.publish(event.Output, "swivel", "swivel",
		event.Value{Name: "angle", V: float64(tv.angle)},
		event.Value{Name: "target", V: float64(tv.swivelTarget)})
}

// publishAudio emits the audible output state. A ValueCorruption fault on
// "audio" skews the *actual* produced loudness while the TV's control state
// still believes the nominal volume — exactly the class of error only
// run-time awareness catches.
func (tv *TV) publishAudio() {
	level := float64(tv.volume)
	if tv.muted || !tv.powered {
		level = 0
	}
	level += tv.volumeSkew
	if level < 0 {
		level = 0
	}
	tv.publish(event.Output, "audio", "audio",
		event.Value{Name: "volume", V: level},
		event.Value{Name: "muted", V: b2f(tv.muted)})
}

// publishScreen emits the screen composition state.
func (tv *TV) publishScreen() {
	tv.publish(event.Output, "screen", "video",
		event.Value{Name: "channel", V: float64(tv.channel)},
		event.Value{Name: "teletext", V: b2f(tv.teletext)},
		event.Value{Name: "menu", V: b2f(tv.menu)},
		event.Value{Name: "dual", V: b2f(tv.dual)},
		event.Value{Name: "power", V: b2f(tv.powered)},
		event.Value{Name: "source", V: float64(tv.source)},
		event.Value{Name: "photo", V: float64(tv.photo)})
}

// Snapshot returns the control state as named scalars (used by tests and by
// the state observer).
func (tv *TV) Snapshot() map[string]float64 {
	return map[string]float64{
		"power":    b2f(tv.powered),
		"volume":   float64(tv.volume),
		"muted":    b2f(tv.muted),
		"channel":  float64(tv.channel),
		"teletext": b2f(tv.teletext),
		"menu":     b2f(tv.menu),
		"dual":     b2f(tv.dual),
		"locked":   b2f(tv.locked),
		"source":   float64(tv.source),
		"photo":    float64(tv.photo),
		"angle":    float64(tv.angle),
	}
}

// FrameMisses returns the number of video frame deadline misses so far.
func (tv *TV) FrameMisses() uint64 { return tv.frameMisses }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
