package exper

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/mediaplayer"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// The spec models of the tree, pinned: exploration results (state and
// transition counts, findings) and seeded behavioural walks. The expected
// values were computed before specs were split from their instances, on
// the map-backed engine, so any change in what a model does shows here.

func exploreSummary(r statemachine.ExploreResult) string {
	kinds := map[string]int{}
	h := fnv.New64a()
	for _, v := range r.Violations {
		kinds[v.Kind]++
		fmt.Fprintln(h, v.String())
	}
	return fmt.Sprintf("states=%d transitions=%d truncated=%v unreachable=%v violations=%v digest=%x",
		r.StatesVisited, r.Transitions, r.Truncated, r.Unreachable, kinds, h.Sum64())
}

func keyEvent(k tvsim.Key) event.Event {
	return event.Event{Kind: event.Input, Name: "key"}.With("key", float64(k))
}

func cmdEvent(c mediaplayer.Cmd) event.Event {
	return event.Event{Kind: event.Input, Name: "cmd"}.With("cmd", float64(c))
}

// walkDigest dispatches n events and hashes the configuration and the
// named variables after each.
func walkDigest(m *statemachine.Model, vars []string, next func(i int) event.Event, n int) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		err := m.Dispatch(next(i))
		fmt.Fprint(h, err, m.Config())
		for _, v := range vars {
			fmt.Fprintf(h, "%s=%g;", v, m.Var(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

var tvVars = []string{"power", "volume", "volSetting", "muted", "channel", "photo", "source", "teletext",
	"teletextFresh", "menu", "dual", "locked", "swivelTarget", "sleepArmed", "sleepExpired", "quality"}

func TestSpecModelsExplorePinned(t *testing.T) {
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	opts := statemachine.ExploreOptions{Alphabet: []string{"menu", "text"}}
	check("osd-buggy", exploreSummary(osdFragment(true).Explore(opts)),
		"states=8 transitions=16 truncated=false unreachable=[] violations=map[invariant:4] digest=4ba24d475547a079")
	check("osd-fixed", exploreSummary(osdFragment(false).Explore(opts)),
		"states=8 transitions=16 truncated=false unreachable=[] violations=map[] digest=cbf29ce484222325")
	e2 := e2Model(nil)
	mustModelStart(e2)
	check("e2", exploreSummary(e2.Explore(statemachine.ExploreOptions{Alphabet: []string{"set", "tick"}})),
		"states=1 transitions=2 truncated=false unreachable=[] violations=map[deadlock:1] digest=fd8483556d20ee2f")

	// Explore's alphabet is bare event names, so the TV and the player are
	// explored from configurations reached by key presses.
	tvWant := []string{
		"states=1 transitions=2 truncated=false unreachable=[power/on sleep/armed] violations=map[deadlock:1] digest=8e456f8e8d27f25a",
		"states=1 transitions=2 truncated=false unreachable=[power/off sleep/armed] violations=map[deadlock:1] digest=db22a4dda9912e0e",
		"states=2 transitions=5 truncated=false unreachable=[] violations=map[deadlock:1] digest=1a82b532d8059ca9",
		"states=1 transitions=2 truncated=false unreachable=[power/off sleep/armed] violations=map[deadlock:1] digest=db22a4dda9912e0e",
		"states=2 transitions=5 truncated=false unreachable=[] violations=map[deadlock:1] digest=1a82b532d8059ca9",
	}
	for i, prefix := range [][]tvsim.Key{nil, {tvsim.KeyPower}, {tvsim.KeyPower, tvsim.KeySleep},
		{tvsim.KeyPower, tvsim.KeySource, tvsim.KeyMenu}, {tvsim.KeyPower, tvsim.KeyText, tvsim.KeySleep, tvsim.KeyMute}} {
		m := tvsim.BuildSpecModel(nil, tvsim.Config{})
		tvsim.MirrorQuality(m)
		mustModelStart(m)
		for _, k := range prefix {
			_ = m.Dispatch(keyEvent(k))
		}
		check(fmt.Sprintf("tv%v", prefix), exploreSummary(m.Explore(statemachine.ExploreOptions{Alphabet: []string{"key", "tick"}})), tvWant[i])
	}
	playerWant := []string{
		"states=1 transitions=2 truncated=false unreachable=[playback/pausedS playback/playing] violations=map[deadlock:1] digest=1dd46dcfe990f7ce",
		"states=1 transitions=2 truncated=false unreachable=[playback/pausedS playback/stopped] violations=map[deadlock:1] digest=d63a86e95d0fd299",
		"states=1 transitions=2 truncated=false unreachable=[playback/playing playback/stopped] violations=map[deadlock:1] digest=2fc3b39e58666088",
	}
	for i, prefix := range [][]mediaplayer.Cmd{nil, {mediaplayer.CmdPlay}, {mediaplayer.CmdPlay, mediaplayer.CmdPause}} {
		m := mediaplayer.BuildSpecModel(nil, mediaplayer.Config{})
		mustModelStart(m)
		for _, c := range prefix {
			_ = m.Dispatch(cmdEvent(c))
		}
		check(fmt.Sprintf("player%v", prefix), exploreSummary(m.Explore(statemachine.ExploreOptions{Alphabet: []string{"cmd", "tick"}})), playerWant[i])
	}
}

func TestSpecModelsWalkPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	keys := make([]tvsim.Key, 5000)
	for i := range keys {
		keys[i] = tvsim.Key(rng.Intn(16))
	}
	press := func(i int) event.Event { return keyEvent(keys[i]) }
	tv := tvsim.BuildSpecModel(nil, tvsim.Config{})
	tvsim.MirrorQuality(tv)
	mustModelStart(tv)
	small := tvsim.BuildSpecModel(nil, tvsim.Config{MaxChannel: 12, LockedAbove: 5, PhotoCount: 3})
	mustModelStart(small)
	player := mediaplayer.BuildSpecModel(nil, mediaplayer.Config{})
	mustModelStart(player)
	for _, c := range []struct{ name, got, want string }{
		{"tv", walkDigest(tv, tvVars, press, len(keys)), "f5d5a4ab8d3f1d97"},
		{"tv-small", walkDigest(small, tvVars, press, len(keys)), "57af377f3b0ee701"},
		{"player", walkDigest(player, []string{"playing", "fps", "drift"},
			func(i int) event.Event { return cmdEvent(mediaplayer.Cmd(keys[i] % 4)) }, len(keys)), "54b9e1590adb53d1"},
	} {
		if c.got != c.want {
			t.Errorf("%s walk digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestMonitorCheckpointsPinned drives the TV and light monitors through a
// seeded mix of inputs, outputs and clock advances, hashing a checkpoint
// capture every 97 steps: the name-keyed record a journal stores is
// byte-for-byte what the map-backed engine wrote.
func TestMonitorCheckpointsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := fnv.New64a()
	capture := func(mon interface{ CaptureInto(*wire.Checkpoint) }) {
		var cp wire.Checkpoint
		mon.CaptureInto(&cp)
		fmt.Fprintf(h, "%+v", cp)
	}
	k := sim.NewKernel(1)
	mon, err := tvsim.NewMonitor(k, tvsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		k.Run(k.Now() + sim.Time(rng.Intn(50))*sim.Millisecond)
		if rng.Intn(3) == 0 {
			mon.HandleInput(keyEvent(tvsim.Key(rng.Intn(16))).With("x", 0))
		} else {
			mon.HandleOutput(event.Event{Kind: event.Output, Name: "audio", At: k.Now()}.With("volume", float64(5*rng.Intn(6))))
		}
		if i%97 == 0 {
			capture(mon)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum64()), "c0629d5b5b2dc793"; got != want {
		t.Errorf("tv monitor checkpoint digest = %s, want %s", got, want)
	}
	h.Reset()
	d, err := fleet.LightFactory(3)("dev-000003", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		d.Kernel.Run(d.Kernel.Now() + sim.Time(rng.Intn(30))*sim.Millisecond)
		d.Feed(event.Event{Kind: event.Input, Name: "set", At: d.Kernel.Now()}.With("x", float64(rng.Intn(5))))
		if i%97 == 0 {
			capture(d.Monitor)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum64()), "6fc417e45ff90ac7"; got != want {
		t.Errorf("light monitor checkpoint digest = %s, want %s", got, want)
	}
}
