package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// TestFleetHonoursTheControllerLadder runs the -connect fleet against an
// in-process journaling daemon with the recovery controller attached, as
// `traderd -journal -recover default` runs: every restart and quarantine
// the controller decides for a device is one the device honoured, and
// healthy devices see no error frame. The faulty device runs video-crash,
// txt-sync and audio-skew, so its reports come from silence as well as
// deviation and the ladder reaches quarantine inside the 40 s session —
// often while the device is still re-dialling after its restart, the race
// in which the quarantine verdict must still reach it. Pacing at 10×
// leaves the controller wall time to act before the session ends.
func TestFleetHonoursTheControllerLadder(t *testing.T) {
	const n, faultEvery = 5, 5
	jw, err := journal.Create(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	pool := fleet.NewPool(fleet.Options{Shards: 2})
	defer pool.Stop()
	srv := &fleet.Server{Pool: pool, HelloTimeout: 5 * time.Second, Journal: jw,
		Factory: func(_ string, seed int64) (*sim.Kernel, *core.Monitor, error) {
			k := sim.NewKernel(seed)
			mon, err := tvsim.NewMonitor(k, tvsim.Config{})
			return k, mon, err
		}}
	defer srv.Close()
	var mu sync.Mutex
	var actions []control.Action
	ctl := control.Attach(pool, control.Options{Actuator: srv, Journal: jw, Policy: control.DefaultPolicy(), Logf: t.Logf,
		OnAction: func(a control.Action) {
			mu.Lock()
			actions = append(actions, a)
			mu.Unlock()
		}})
	defer ctl.Close()
	srv.OnAck = ctl.HandleAck
	addr := "unix:" + filepath.Join(t.TempDir(), "tv.sock")
	ln, err := wire.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	schedule, err := parseFaults("video-crash,txt-sync,audio-skew")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runFleet(addr, "tv", n, wire.CodecBinary, 1, 40, faultEvery, spectrum.DefaultBlocks, 10, wire.DurFsync, false, schedule)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Sync()

	mu.Lock()
	defer mu.Unlock()
	for i, st := range stats {
		id := fmt.Sprintf("tv-%06d", i)
		var restarts, quarantines uint64
		for _, a := range actions {
			if a.Device == id {
				switch a.Rung {
				case control.RungRestart:
					restarts++
				case control.RungQuarantine:
					quarantines++
				}
			}
		}
		if st.Restarts != restarts || st.Quarantines != quarantines {
			t.Errorf("%s honoured %d restarts and %d quarantines; the controller pushed %d and %d (actions %v)",
				id, st.Restarts, st.Quarantines, restarts, quarantines, actions)
		}
		if i%faultEvery == 0 {
			if restarts == 0 || quarantines == 0 {
				t.Errorf("faulty %s did not climb the ladder to quarantine (actions %v)", id, actions)
			}
		} else if st.Reports != 0 {
			t.Errorf("healthy %s received %d error frames", id, st.Reports)
		}
	}
}
