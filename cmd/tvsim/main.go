// Command tvsim runs the TV simulator as a standalone SUO process: it plays
// a user scenario, injects faults from a schedule and prints what happened.
//
// With -connect it becomes a fleet of remote SUOs — with -n 1 the full
// Fig. 2 deployment across a real process boundary: it spins up N simulated
// TVs, each dialing a `traderd -listen` ingestion daemon on its own
// connection (Unix socket or TCP), performing the Hello handshake (-codec
// picks the wire codec) and streaming its events; error reports and control
// commands pushed down by the daemon are counted per device. Every
// -fault-every'th device runs the fault schedule, so a known fraction of
// the fleet misbehaves. Each device streams through internal/device's
// compliant client, so it honors the recovery control plane of `traderd
// -recover`: CtrlReset is acknowledged, CtrlRestart re-handshakes and
// resumes streaming, CtrlQuarantine takes the device out of service.
// Each device also carries a spectral flight recorder (tvsim.Recorder):
// block coverage over the shared program layout, one window per heartbeat,
// served back on the daemon's TypeSnapshotReq pulls so `traderd -diagnose`
// can localize a faulty device's defective code block fleet-wide.
//
// Usage:
//
//	tvsim [-seed 1] [-duration 20] [-faults video-crash,txt-sync,audio-skew]
//	tvsim -connect unix:/tmp/trader-fleet.sock -n 100 [-codec binary]
//	      [-duration 20] [-faults txt-sync] [-fault-every 10]
//	      [-pace 5] [-blocks 60000]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"trader/internal/device"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// fatal is the slog replacement for log.Fatalf: one error record, exit 1.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// knownFaults maps schedule names to fault definitions.
var knownFaults = map[string]faults.Fault{
	"video-crash": {ID: "video-crash", Kind: faults.TaskCrash, Target: "video", At: 5 * sim.Second},
	"txt-sync":    {ID: "txt-sync", Kind: faults.SyncLoss, Target: "teletext", At: 8 * sim.Second, Duration: 4 * sim.Second},
	"audio-skew":  {ID: "audio-skew", Kind: faults.ValueCorruption, Target: "audio", At: 12 * sim.Second, Param: -15},
	"overload":    {ID: "overload", Kind: faults.Overload, Target: "video", At: 6 * sim.Second, Duration: 5 * sim.Second, Param: 2.5},
	"bad-input":   {ID: "bad-input", Kind: faults.BadInput, Target: "tuner", At: 4 * sim.Second, Duration: 3 * sim.Second, Param: 0.4},
}

func parseFaults(list string) ([]faults.Fault, error) {
	if list == "" {
		return nil, nil
	}
	var out []faults.Fault
	for _, name := range strings.Split(list, ",") {
		fault, ok := knownFaults[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown fault %q", name)
		}
		out = append(out, fault)
	}
	return out, nil
}

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	duration := flag.Int("duration", 20, "virtual seconds to run")
	connect := flag.String("connect", "", "traderd -listen address to join as a remote fleet (unix:/path or tcp:host:port)")
	n := flag.Int("n", 100, "number of simulated TVs in -connect mode")
	codec := flag.String("codec", wire.CodecBinary, "wire codec to request in -connect mode: json or binary")
	faultEvery := flag.Int("fault-every", 10, "in -connect mode, run the fault schedule on every k'th device (0: none)")
	faultList := flag.String("faults", "txt-sync", "comma-separated fault schedule; available: video-crash,txt-sync,audio-skew,overload,bad-input")
	blocks := flag.Int("blocks", spectrum.DefaultBlocks, "in -connect mode, spectral-recorder block count (must match traderd -diagnose-blocks)")
	deltas := flag.Bool("deltas", false, "in -connect mode, piggyback a sparse spectrum delta on every heartbeat (traderd -diagnose-continuous folds them as they arrive; also enables delta traffic from chaos baseline clients)")
	pace := flag.Float64("pace", 0, "in -connect mode, virtual seconds per wall second (0: run as fast as possible); paced fleets behave like real-time devices")
	durability := flag.String("durability", string(wire.DurFsync), "in -connect mode, durability class to request in the Hello handshake: fsync (ack = journaled) or dispatch (ack = monitored; long-tail devices)")
	chaos := flag.Bool("chaos", false, "in -connect mode, run the overload soak instead of the fleet scenario: floods, credit-hostile clients, connection churn, flapping, slow readers and byzantine frames around a steady baseline; -duration is wall seconds")
	idPrefix := flag.String("id-prefix", "tvsim", "in -connect mode, device-ID prefix (IDs are PREFIX-000000…); give each tvsim instance its own prefix when several feed one fleet — e.g. one per federation edge — so their device identities stay disjoint")
	logFormat := flag.String("log-format", "text", "structured log output: text or json")
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text", "":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "tvsim: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}

	schedule, err := parseFaults(*faultList)
	if err != nil {
		fatal("bad -faults", "err", err)
	}
	dur, ok := wire.DurabilityByName(*durability)
	if !ok {
		fatal("unknown -durability", "durability", *durability)
	}

	if *chaos {
		if *connect == "" {
			fatal("-chaos requires -connect (it soaks a live traderd)")
		}
		if err := runChaos(*connect, *idPrefix, *n, *codec, *seed, *duration, dur, *deltas, *blocks); err != nil {
			fatal("chaos soak failed", "err", err)
		}
		return
	}

	if *connect != "" {
		if _, err := runFleet(*connect, *idPrefix, *n, *codec, *seed, *duration, *faultEvery, *blocks, *pace, dur, *deltas, schedule); err != nil {
			fatal("fleet session failed", "err", err)
		}
		return
	}
	runStandalone(*seed, *duration, schedule)
}

// scenario schedules the watching user on the TV: power on, teletext,
// periodic volume nudges, and returns the horizon to run to.
func scenario(k *sim.Kernel, tv *tvsim.TV, duration int) sim.Time {
	tv.PressKey(tvsim.KeyPower)
	tv.PressKey(tvsim.KeyText)
	horizon := sim.Time(duration) * sim.Second
	for t := sim.Second; t < horizon; t += 2 * sim.Second {
		up := (t/sim.Second)%4 == 1
		k.ScheduleAt(t, func() {
			if up {
				tv.PressKey(tvsim.KeyVolUp)
			} else {
				tv.PressKey(tvsim.KeyVolDown)
			}
		})
	}
	return horizon
}

// deviceStats aggregates what one remote TV saw during a -connect session.
type deviceStats struct {
	device.Stats
	keys, frames int
	deltas       uint64
}

// runOne connects one simulated TV to the ingestion daemon and plays the
// scenario to the horizon, streaming every bus event over the wire through
// the compliant device client, which honours whatever recovery commands
// the daemon pushes back (frames emitted while the device is down are
// lost: that is the downtime the controller accounts). The device's
// spectral recorder shadows the session: every bus event maps onto the
// shared program layout, a heartbeat each virtual second closes the
// coverage window, and a faulty device's schedule marks the targeted
// feature's code as defective — so a traderd -diagnose pull can localize
// the fault block across the fleet.
func runOne(addr, id, codec string, seed int64, duration, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) (deviceStats, error) {
	var st deviceStats
	k := sim.NewKernel(seed)
	tv := tvsim.New(k, tvsim.Config{})
	rec := tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: blocks, Seed: seed})
	for _, f := range schedule {
		tv.Injector().Schedule(f)
		if feat, ok := tvsim.FeatureOfComponent(f.Target); ok {
			rec.InjectFault(feat)
		}
	}
	c := &device.Client{Snapshot: rec.Snapshot}
	if deltas {
		// With -deltas the closing window rides along as a sparse spectrum
		// delta just before each heartbeat — continuous diagnosis evidence,
		// no pull required. Deltas spend no credit: like heartbeats they
		// are bounded per virtual second, not per observation, and the
		// daemon sheds them under pressure instead.
		c.Delta = func(at sim.Time) *wire.SpectrumDelta {
			st.deltas++
			return rec.RotateDelta(at)
		}
	}
	if _, err := c.Dial(addr, wire.Message{SUO: id, Codec: codec, Durability: dur}); err != nil {
		return st, err
	}
	defer c.Close()

	var frames int
	tv.Bus().Subscribe("frame", func(event.Event) { frames++ })
	sub := tv.Bus().Subscribe("", func(e event.Event) {
		if e.Kind == event.Err {
			return
		}
		rec.Observe(e)
		// Under flow control an exhausted window blocks here, stalling the
		// device's virtual time: that is the backpressure.
		_ = c.Send(e)
	})
	defer sub.Unsubscribe()

	// A heartbeat every virtual second: the flush barrier for the daemon
	// and the window boundary for the spectral recorder. The device waits
	// for each echo, so it never runs more than a virtual second ahead of
	// its monitor.
	hb := k.Every(sim.Second, func() {
		at := k.Now()
		if !deltas {
			rec.Rotate(at)
		}
		_ = c.Heartbeat(at)
	})
	defer hb.Stop()

	// With pacing, virtual time tracks wall time (pace virtual seconds per
	// wall second) instead of racing ahead as fast as the CPU allows — the
	// cadence of a real device in the field. A paced fleet keeps the
	// daemon's per-connection backlog near zero, so recovery pushes and
	// diagnosis pulls interleave with the stream the way they would in
	// production rather than racing a seconds-deep queue.
	horizon := scenario(k, tv, duration)
	if pace > 0 {
		// Pace against absolute deadlines on the monotonic clock, not a
		// fixed sleep per burst: sleeping wallStep AFTER each k.Run adds the
		// burst's own processing time to every period, so the cadence
		// drifted late by the accumulated work — minutes over a long paced
		// session. Sleeping until start+i*wallStep absorbs the work time
		// instead of stacking it.
		wallStep := time.Duration(float64(time.Second) / pace)
		start := time.Now()
		for i, t := 1, k.Now()+sim.Second; t <= horizon; i, t = i+1, t+sim.Second {
			k.Run(t)
			time.Sleep(time.Until(start.Add(time.Duration(i) * wallStep)))
		}
	}
	k.Run(horizon)

	// Drain: a final heartbeat at the horizon, echoed once the daemon has
	// chewed through the stream's tail (closing early would discard it,
	// snapshot replies included). A device that ended the session down
	// (restarting or quarantined) has nothing to drain.
	_ = c.Heartbeat(horizon)
	st.keys, st.frames, st.Stats = int(tv.KeysHandled), frames, c.Stats()
	return st, nil
}

// runFleet drives n concurrent remote TVs against the ingestion daemon and
// returns what each saw.
func runFleet(addr, prefix string, n int, codec string, seed int64, duration, faultEvery, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) ([]deviceStats, error) {
	slog.Info("connecting fleet", "component", "fleet",
		"tvs", n, "addr", addr, "codec", codec, "durability", string(dur), "fault_every", faultEvery)
	start := time.Now()
	var wg sync.WaitGroup
	stats := make([]deviceStats, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sched []faults.Fault
			if faultEvery > 0 && i%faultEvery == 0 {
				sched = schedule
			}
			id := fmt.Sprintf("%s-%06d", prefix, i)
			stats[i], errs[i] = runOne(addr, id, codec, seed+int64(i), duration, blocks, pace, dur, deltas, sched)
		}(i)
	}
	wg.Wait()

	var ok int
	var sum deviceStats
	var firstErr error
	for i, st := range stats {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s-%06d: %w", prefix, i, errs[i])
			}
			continue
		}
		ok++
		sum.keys += st.keys
		sum.frames += st.frames
		sum.deltas += st.deltas
		sum.Reports += st.Reports
		sum.Controls += st.Controls
		sum.Restarts += st.Restarts
		sum.Quarantines += st.Quarantines
		sum.Snapshots += st.Snapshots
		sum.Stalls += st.Stalls
	}
	slog.Info("fleet session done", "component", "fleet",
		"took", time.Since(start).String(), "completed", ok, "tvs", n, "keys", sum.keys,
		"frames", sum.frames, "reports", sum.Reports, "controls", sum.Controls, "restarts", sum.Restarts,
		"quarantines", sum.Quarantines, "snapshots", sum.Snapshots, "deltas", sum.deltas)
	if sum.Stalls > 0 {
		slog.Info("flow control honored", "component", "fleet", "credit_stalls", sum.Stalls)
	}
	if ok == 0 && firstErr != nil {
		return stats, firstErr
	}
	if firstErr != nil {
		slog.Warn("first device failure", "component", "fleet", "err", firstErr)
	}
	return stats, nil
}

// runStandalone is the original single-TV mode: run locally, no monitor
// attached.
func runStandalone(seed int64, duration int, schedule []faults.Fault) {
	k := sim.NewKernel(seed)
	tv := tvsim.New(k, tvsim.Config{})

	for _, fault := range schedule {
		tv.Injector().Schedule(fault)
		slog.Info("fault scheduled", "component", "standalone", "fault", fmt.Sprint(fault))
	}

	// Event accounting for the session summary.
	var frames, errors int
	tv.Bus().Subscribe("", func(e event.Event) {
		switch e.Name {
		case "frame":
			frames++
		}
		if e.Kind == event.Err {
			errors++
		}
	})

	horizon := scenario(k, tv, duration)
	k.Run(horizon)

	fmt.Printf("tvsim: ran %s of virtual time\n", horizon)
	fmt.Printf("tvsim: %d keys handled, %d frames shown, %d frame deadline misses\n",
		tv.KeysHandled, frames, tv.FrameMisses())
	for _, a := range tv.Injector().History() {
		to := "…"
		if a.To != 0 {
			to = a.To.String()
		}
		fmt.Printf("tvsim: fault %s active %s → %s\n", a.Fault.ID, a.From, to)
	}
}
