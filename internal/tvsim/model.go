package tvsim

import (
	"sync"

	"trader/internal/core"
	"trader/internal/sim"
	"trader/internal/statemachine"
)

// BuildSpecModel constructs the executable specification model of the TV's
// user-observable behaviour (Sect. 4.2): "a high-level model of a TV from
// the viewpoint of the user ... the relation between user input, via the
// remote control, and output, via images on the screen and sound".
//
// The model is what the awareness monitor executes at run time. Its
// variables are the expected observables:
//
//	power, volume (audible level), muted, channel, teletext, menu, dual,
//	locked, swivelTarget, teletextFresh
//
// In a fault-free run the TV's outputs track these exactly; deviations are
// errors. The model deliberately abstracts the streaming side (no frame
// quality — partial models are the point: "the approach allows the use of
// partial models, concentrating on what is most relevant for the user").
//
// Every model of one spec-relevant configuration instantiates the same
// Spec; the default configuration's is defined once per process.
func BuildSpecModel(kernel *sim.Kernel, cfg Config) *statemachine.Model {
	cfg.fill()
	var def Config
	def.fill()
	if cfg.specKey() == def.specKey() {
		return defaultSpec().New(kernel)
	}
	return defineSpec(cfg).New(kernel)
}

// specKey is the part of a filled Config the spec model reads.
func (c Config) specKey() [4]int64 {
	return [4]int64{int64(c.SleepDuration), int64(c.MaxChannel), int64(c.LockedAbove), int64(c.PhotoCount)}
}

// defaultSpec is the TV spec of the default configuration, defined on first
// use and shared by every monitor built with it.
var defaultSpec = sync.OnceValue(func() *statemachine.Spec {
	var def Config
	def.fill()
	return defineSpec(def)
})

// specVars declares the TV spec model's variables; only MirrorQuality's
// hook writes quality.
var specVars = []string{
	"power", "volume", "volSetting", "muted", "channel", "photo", "source",
	"teletext", "teletextFresh", "menu", "dual", "locked", "swivelTarget",
	"sleepArmed", "sleepExpired", "quality",
}

// defineSpec compiles the TV spec model for a filled cfg.
func defineSpec(cfg Config) *statemachine.Spec {
	key := func(k Key) func(*statemachine.Context) bool {
		return func(c *statemachine.Context) bool {
			v, ok := c.Event.Get("key")
			return ok && Key(v) == k
		}
	}
	keyOn := func(k Key) func(*statemachine.Context) bool {
		inner := key(k)
		return func(c *statemachine.Context) bool { return c.Get("power") == 1 && inner(c) }
	}

	// audible recomputes the expected audible level.
	audible := func(c *statemachine.Context) {
		if c.Get("power") == 0 || c.Get("muted") == 1 {
			c.Set("volume", 0)
		} else {
			c.Set("volume", c.Get("volSetting"))
		}
	}

	powerOff := func(c *statemachine.Context) {
		c.Set("power", 0)
		c.Set("teletext", 0)
		c.Set("menu", 0)
		c.Set("dual", 0)
		c.Set("teletextFresh", 0)
		c.Set("sleepArmed", 0)
		audible(c)
	}
	powerOn := func(c *statemachine.Context) {
		c.Set("power", 1)
		audible(c)
	}

	power := statemachine.NewRegion("power")
	power.Add(&statemachine.State{
		Name:  "off",
		Entry: powerOff,
		Transitions: []statemachine.Transition{
			{Event: "key", Guard: key(KeyPower), Target: "on"},
		},
	})
	power.Add(&statemachine.State{
		Name:  "on",
		Entry: powerOn,
		Transitions: []statemachine.Transition{
			{Event: "key", Guard: key(KeyPower), Target: "off"},
			// Sleep-timer expiry (set by the sleep region) powers down.
			{Guard: func(c *statemachine.Context) bool { return c.Get("sleepExpired") == 1 },
				Target: "off", Action: func(c *statemachine.Context) { c.Set("sleepExpired", 0) }},
		},
	})

	audio := statemachine.NewRegion("audio")
	audio.Add(&statemachine.State{
		Name: "audio",
		Entry: func(c *statemachine.Context) {
			c.Set("volSetting", 20)
			audible(c)
		},
		Transitions: []statemachine.Transition{
			{Event: "key", Guard: keyOn(KeyVolUp), Action: func(c *statemachine.Context) {
				v := c.Get("volSetting") + 5
				if v > 100 {
					v = 100
				}
				c.Set("volSetting", v)
				c.Set("muted", 0)
				audible(c)
			}},
			{Event: "key", Guard: keyOn(KeyVolDown), Action: func(c *statemachine.Context) {
				v := c.Get("volSetting") - 5
				if v < 0 {
					v = 0
				}
				c.Set("volSetting", v)
				c.Set("muted", 0)
				audible(c)
			}},
			{Event: "key", Guard: keyOn(KeyMute), Action: func(c *statemachine.Context) {
				c.SetBool("muted", c.Get("muted") == 0)
				audible(c)
			}},
		},
	})

	screen := statemachine.NewRegion("screen")
	screen.Add(&statemachine.State{
		Name: "screen",
		Entry: func(c *statemachine.Context) {
			c.Set("channel", 1)
			c.Set("photo", 1)
		},
		Transitions: []statemachine.Transition{
			{Event: "key", Guard: keyOn(KeyChUp), Action: func(c *statemachine.Context) {
				if c.Get("source") == 1 {
					stepPhotoVar(c, +1, cfg)
				} else {
					zap(c, +1, cfg)
				}
			}},
			{Event: "key", Guard: keyOn(KeyChDown), Action: func(c *statemachine.Context) {
				if c.Get("source") == 1 {
					stepPhotoVar(c, -1, cfg)
				} else {
					zap(c, -1, cfg)
				}
			}},
			{Event: "key", Guard: keyOn(KeySource), Action: func(c *statemachine.Context) {
				if c.Get("source") == 0 {
					c.Set("source", 1)
					c.Set("photo", 1)
					c.Set("teletext", 0)
					c.Set("teletextFresh", 0)
					c.Set("dual", 0)
				} else {
					c.Set("source", 0)
				}
			}},
			{Event: "key", Guard: keyOn(KeyText), Action: func(c *statemachine.Context) {
				if c.Get("menu") == 1 {
					return // menu suppresses teletext
				}
				if c.Get("source") != 0 {
					return // teletext needs the broadcast tuner
				}
				on := c.Get("teletext") == 0
				c.SetBool("teletext", on)
				c.SetBool("teletextFresh", on)
				if on {
					c.Set("dual", 0)
				}
			}},
			{Event: "key", Guard: keyOn(KeyMenu), Action: func(c *statemachine.Context) {
				open := c.Get("menu") == 0
				c.SetBool("menu", open)
				if open && c.Get("teletext") == 1 {
					c.Set("teletext", 0)
					c.Set("teletextFresh", 0)
				}
			}},
			{Event: "key", Guard: keyOn(KeyBack), Action: func(c *statemachine.Context) {
				if c.Get("menu") == 1 {
					c.Set("menu", 0)
				}
			}},
			{Event: "key", Guard: keyOn(KeyDual), Action: func(c *statemachine.Context) {
				if c.Get("source") != 0 {
					return // dual screen composes two broadcast pictures
				}
				if c.Get("teletext") == 1 {
					c.Set("teletext", 0)
					c.Set("teletextFresh", 0)
				}
				c.SetBool("dual", c.Get("dual") == 0)
			}},
			{Event: "key", Guard: keyOn(KeyLock), Action: func(c *statemachine.Context) {
				c.SetBool("locked", c.Get("locked") == 0)
			}},
			{Event: "key", Guard: keyOn(KeySwivelLeft), Action: func(c *statemachine.Context) {
				moveTarget(c, -10)
			}},
			{Event: "key", Guard: keyOn(KeySwivelRight), Action: func(c *statemachine.Context) {
				moveTarget(c, +10)
			}},
		},
	})

	// Sleep region: arming starts a timed transition; expiry raises the
	// sleepExpired flag consumed by the power region.
	sleep := statemachine.NewRegion("sleep")
	sleep.Add(&statemachine.State{
		Name: "disarmed",
		Transitions: []statemachine.Transition{
			{Event: "key", Guard: keyOn(KeySleep), Target: "armed"},
		},
	})
	sleep.Add(&statemachine.State{
		Name:  "armed",
		Entry: func(c *statemachine.Context) { c.Set("sleepArmed", 1) },
		Exit:  func(c *statemachine.Context) { c.Set("sleepArmed", 0) },
		Transitions: []statemachine.Transition{
			{After: cfg.SleepDuration, Target: "disarmed",
				Action: func(c *statemachine.Context) { c.Set("sleepExpired", 1) }},
			// Re-pressing sleep restarts the timer.
			{Event: "key", Guard: keyOn(KeySleep), Target: "armed"},
			// Power-off disarms.
			{Event: "key", Guard: key(KeyPower), Target: "disarmed"},
		},
	})

	spec := statemachine.MustDefine("tv-spec", specVars, power, audio, screen, sleep)

	// The invariants that exploration (E11) checks — the paper's feature
	// interaction rules.
	spec.AddInvariant("menu-suppresses-teletext", func(m *statemachine.Model) bool {
		return !(m.Var("menu") == 1 && m.Var("teletext") == 1)
	})
	spec.AddInvariant("teletext-forces-single-screen", func(m *statemachine.Model) bool {
		return !(m.Var("teletext") == 1 && m.Var("dual") == 1)
	})
	spec.AddInvariant("standby-is-dark-and-silent", func(m *statemachine.Model) bool {
		if m.Var("power") == 1 {
			return true
		}
		return m.Var("teletext") == 0 && m.Var("menu") == 0 && m.Var("dual") == 0 && m.Var("volume") == 0
	})
	spec.AddInvariant("volume-in-range", func(m *statemachine.Model) bool {
		v := m.Var("volume")
		return v >= 0 && v <= 100
	})
	spec.AddInvariant("teletext-needs-tuner", func(m *statemachine.Model) bool {
		return !(m.Var("teletext") == 1 && m.Var("source") == 1)
	})
	return spec
}

// stepPhotoVar navigates the photo browser in the model, mirroring the
// TV's wrap-around behaviour.
func stepPhotoVar(c *statemachine.Context, dir int, cfg Config) {
	p := int(c.Get("photo")) + dir
	if p < 1 {
		p = cfg.PhotoCount
	}
	if p > cfg.PhotoCount {
		p = 1
	}
	c.Set("photo", float64(p))
}

func zap(c *statemachine.Context, dir int, cfg Config) {
	ch := int(c.Get("channel")) + dir
	if ch < 1 {
		ch = cfg.MaxChannel
	}
	if ch > cfg.MaxChannel {
		ch = 1
	}
	if c.Get("locked") == 1 && ch > cfg.LockedAbove {
		return // child lock blocks
	}
	c.Set("channel", float64(ch))
}

func moveTarget(c *statemachine.Context, delta float64) {
	t := c.Get("swivelTarget") + delta
	if t > 45 {
		t = 45
	}
	if t < -45 {
		t = -45
	}
	c.Set("swivelTarget", t)
}

// MirrorQuality installs the standard partial expectation for frame
// quality: full quality whenever the power mode is "on", zero otherwise
// (the spec model itself abstracts the streaming side). NewMonitor and the
// experiments that configure their own comparators all use this same hook,
// so every comparator judges against the same expectation.
func MirrorQuality(model *statemachine.Model) {
	model.OnConfig(func(region, leaf string) {
		if region == "power" {
			q := 0.0
			if leaf == "on" {
				q = 1
			}
			_ = model.SetVar("quality", q)
		}
	})
}

// Observables is the reference monitor configuration for the TV: the
// comparators traderd's tv profile and the experiments run.
func Observables() core.Configuration {
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

// NewMonitor builds the reference awareness monitor for a TV configured by
// cfg, on kernel k: the spec model with the frame-quality expectation
// mirrored from the power state, compared against Observables, started.
// The caller attaches it to the TV's bus, or feeds it remote events.
func NewMonitor(k *sim.Kernel, cfg Config) (*core.Monitor, error) {
	model := BuildSpecModel(k, cfg)
	MirrorQuality(model)
	mon, err := core.NewMonitor(k, model, Observables())
	if err != nil {
		return nil, err
	}
	if err := mon.Start(); err != nil {
		return nil, err
	}
	return mon, nil
}
