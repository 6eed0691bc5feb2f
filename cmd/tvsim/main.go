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
// the fleet misbehaves. Devices honor the recovery control plane of
// `traderd -recover`: CtrlReset is acknowledged, CtrlRestart re-handshakes
// and resumes streaming, CtrlQuarantine takes the device out of service.
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
		if err := runFleet(*connect, *idPrefix, *n, *codec, *seed, *duration, *faultEvery, *blocks, *pace, dur, *deltas, schedule); err != nil {
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
	keys, frames          int
	reports, ctrls        uint64
	restarts, quarantines uint64
	snapshots, deltas     uint64
	stalls                uint64
}

// errDeviceDown reports a frame dropped because the device is between
// connections (restarting) or out of service (quarantined).
var errDeviceDown = errors.New("tvsim: device down")

// fleetTV is one remote SUO honoring the recovery control plane: a
// reconnectable connection whose reader answers control pushes — CtrlReset
// is acked, CtrlRestart re-handshakes and resumes streaming (frames emitted
// while down are lost: that is the downtime the controller accounts), and
// CtrlQuarantine stops the device for good.
type fleetTV struct {
	addr, id, codec string
	// durability is the class requested in every Hello (initial dial and
	// restart re-handshakes); the daemon's grant may be stronger.
	durability wire.Durability

	// rec is the device's spectral flight recorder: block coverage per
	// heartbeat window, served back on TypeSnapshotReq pulls.
	rec *tvsim.Recorder

	mu          sync.Mutex
	wc          *wire.Conn
	down        bool
	quarantined bool
	// stopped latches when the session ends (close): a restart re-dial
	// still in flight must not resurrect the connection afterwards.
	stopped bool

	// lastAt shadows the latest streamed virtual time so acks sent from
	// the reader goroutine carry an in-window timestamp.
	lastAt                atomic.Int64
	reports, ctrls        atomic.Uint64
	restarts, quarantines atomic.Uint64
	snapshots             atomic.Uint64
	// Flow control, client side: window is the Hello-granted frame-credit
	// window (0: off), credits the local balance. Every observation spends
	// one credit; heartbeats are free. The daemon's grants — mid-stream
	// TypeCredit frames and the Credits field on heartbeat echoes — are
	// deltas the reader adds back, waking a forward() blocked on an
	// exhausted window through creditc. creditStalls counts those blocks.
	window       atomic.Uint32
	credits      atomic.Int64
	creditc      chan struct{}
	creditStalls atomic.Uint64
	// echoedAt is the highest virtual time the daemon has echoed back —
	// the flush-barrier watermark. The daemon echoes heartbeats in order
	// once every earlier frame on the connection has been monitored, so a
	// device is drained exactly when echoedAt reaches its final
	// heartbeat's time.
	echoedAt atomic.Int64
}

func (d *fleetTV) at() sim.Time { return sim.Time(d.lastAt.Load()) }

// conn returns the live connection, or errDeviceDown between connections.
func (d *fleetTV) conn() (*wire.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down || d.wc == nil {
		return nil, errDeviceDown
	}
	return d.wc, nil
}

func (d *fleetTV) send(m wire.Message) error {
	wc, err := d.conn()
	if err != nil {
		return err
	}
	return wc.Encode(m)
}

// dial opens a connection and returns it with the credit window the Hello
// reply granted.
func (d *fleetTV) dial() (*wire.Conn, uint32, error) {
	wc, reply, err := wire.Dial(d.addr, wire.Message{SUO: d.id, Codec: d.codec, Durability: d.durability})
	return wc, reply.Credits, err
}

// grant adds a replenishment delta to the credit balance and wakes a
// forward() blocked on the empty window.
func (d *fleetTV) grant(n uint32) {
	if n == 0 {
		return
	}
	d.credits.Add(int64(n))
	select {
	case d.creditc <- struct{}{}:
	default:
	}
}

// forward streams one bus event, dropping it silently while the device is
// down — a restarting SUO produces no observable output. Under flow
// control it is the compliant half of the credit protocol: an exhausted
// window blocks the device (stalling its virtual time — that is the
// backpressure) after soliciting replenishment with a heartbeat, whose
// echo carries the grant.
func (d *fleetTV) forward(e event.Event) {
	wc, err := d.conn()
	if err != nil {
		return
	}
	if d.window.Load() > 0 {
		for d.credits.Load() <= 0 {
			d.creditStalls.Add(1)
			d.lastAt.Store(int64(e.At))
			_ = wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: d.id, At: e.At})
			select {
			case <-d.creditc:
			case <-time.After(50 * time.Millisecond):
				// The solicit may itself be shed near saturation; retry.
			}
			if wc, err = d.conn(); err != nil {
				return // restarted or quarantined while blocked
			}
		}
		d.credits.Add(-1)
	}
	d.lastAt.Store(int64(e.At))
	_ = wc.SendEvent(d.id, e)
}

// read consumes one connection's downstream frames until it ends.
func (d *fleetTV) read(wc *wire.Conn) {
	for {
		msg, err := wc.Decode()
		if err != nil {
			return
		}
		switch msg.Type {
		case wire.TypeError:
			d.reports.Add(1)
		case wire.TypeHeartbeat:
			// The daemon's heartbeat echo is a flush barrier: every
			// observation sent before it has been monitored and its error
			// frames already precede the echo on this stream. Its Credits
			// field is the echo's replenishment delta.
			if at := int64(msg.At); at > d.echoedAt.Load() {
				d.echoedAt.Store(at)
			}
			d.grant(msg.Credits)
		case wire.TypeCredit:
			// Mid-stream replenishment: the daemon topped the window back
			// up without waiting for the next heartbeat.
			d.grant(msg.Credits)
		case wire.TypeSnapshotReq:
			// The diagnosis plane pulls this device's coverage evidence.
			d.snapshots.Add(1)
			_ = d.send(wire.Message{Type: wire.TypeSnapshot, SUO: d.id, At: d.at(), Snapshot: d.rec.Snapshot()})
		case wire.TypeControl:
			d.ctrls.Add(1)
			switch msg.Control {
			case wire.CtrlReset:
				// Monitor-side state was re-armed; nothing to tear down on
				// a simulated TV — acknowledge so the controller knows. The
				// echoed trace context closes the control span chain on the
				// daemon (§6.2).
				ack := wire.Ack(d.id, wire.CtrlReset, d.at())
				ack.Trace = msg.Trace
				_ = d.send(ack)
			case wire.CtrlRestart:
				// Honored synchronously: a restarting SUO stops consuming
				// its old connection (a quarantine verdict racing the
				// restart is re-delivered by the daemon on the next
				// handshake). The next Decode sees the closed connection
				// and ends this reader.
				d.restart(msg.Trace)
			case wire.CtrlQuarantine:
				d.quarantines.Add(1)
				ack := wire.Ack(d.id, wire.CtrlQuarantine, d.at())
				ack.Trace = msg.Trace
				_ = d.send(ack)
				d.mu.Lock()
				d.quarantined, d.down = true, true
				d.mu.Unlock()
				wc.Close()
				return
			}
		}
	}
}

// restart honors CtrlRestart: drop the connection, re-handshake (the daemon
// re-admits the ID — or, in journal mode, hands back the adopted device),
// acknowledge, resume streaming. The push's trace context rides through the
// restart and is echoed on the ack, so the daemon's span chain measures the
// full restart round-trip.
func (d *fleetTV) restart(tc *wire.TraceContext) {
	d.mu.Lock()
	if d.quarantined || d.stopped {
		d.mu.Unlock()
		return
	}
	d.down = true
	old := d.wc
	d.wc = nil
	d.mu.Unlock()
	if old != nil {
		old.Close()
	}
	var wc *wire.Conn
	var granted uint32
	var err error
	for try := 0; try < 40; try++ {
		// The daemon may still be tearing the old registration down; the
		// ID frees up within a removal round-trip.
		if wc, granted, err = d.dial(); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		slog.Warn("restart re-handshake failed", "component", "device", "device", d.id, "err", err)
		return
	}
	d.mu.Lock()
	if d.quarantined || d.stopped { // overtaken while re-dialing: stay down
		d.mu.Unlock()
		wc.Close()
		return
	}
	d.wc = wc
	d.down = false
	d.mu.Unlock()
	// The credit window is per connection: the re-handshake granted a
	// fresh one, and any balance from the dead connection is void.
	d.window.Store(granted)
	d.credits.Store(int64(granted))
	// Only now is the restart honored: re-handshaken and streaming again.
	d.restarts.Add(1)
	ack := wire.Ack(d.id, wire.CtrlRestart, d.at())
	ack.Trace = tc
	_ = wc.Encode(ack)
	go d.read(wc)
}

func (d *fleetTV) close() {
	d.mu.Lock()
	wc := d.wc
	d.wc, d.down, d.stopped = nil, true, true
	d.mu.Unlock()
	if wc != nil {
		wc.Close()
	}
}

// runOne connects one simulated TV to the ingestion daemon and plays the
// scenario to the horizon, streaming every bus event over the wire and
// honoring any recovery commands the daemon pushes back. The device's
// spectral recorder shadows the session: every bus event maps onto the
// shared program layout, a heartbeat each virtual second closes the
// coverage window, and a faulty device's schedule marks the targeted
// feature's code as defective — so a traderd -diagnose pull can localize
// the fault block across the fleet.
func runOne(addr, id, codec string, seed int64, duration, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) (deviceStats, error) {
	var st deviceStats
	d := &fleetTV{addr: addr, id: id, codec: codec, durability: dur,
		creditc: make(chan struct{}, 1),
		rec:     tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: blocks, Seed: seed})}
	for _, f := range schedule {
		if feat, ok := tvsim.FeatureOfComponent(f.Target); ok {
			d.rec.InjectFault(feat)
		}
	}
	wc, granted, err := d.dial()
	if err != nil {
		return st, err
	}
	d.wc = wc
	d.window.Store(granted)
	d.credits.Store(int64(granted))
	go d.read(wc)

	k := sim.NewKernel(seed)
	tv := tvsim.New(k, tvsim.Config{})
	for _, f := range schedule {
		tv.Injector().Schedule(f)
	}
	var frames int
	tv.Bus().Subscribe("frame", func(event.Event) { frames++ })
	sub := tv.Bus().Subscribe("", func(e event.Event) {
		if e.Kind == event.Err {
			return
		}
		d.rec.Observe(e)
		d.forward(e)
	})
	defer sub.Unsubscribe()

	// A heartbeat every virtual second: the flush-barrier pacing for the
	// daemon and the window boundary for the spectral recorder. With -deltas
	// the closing window rides along as a sparse spectrum delta just before
	// the heartbeat — continuous diagnosis evidence, no pull required. Deltas
	// spend no credit: like heartbeats they are bounded per virtual second,
	// not per observation, and the daemon sheds them under pressure instead.
	hb := k.Every(sim.Second, func() {
		at := k.Now()
		d.lastAt.Store(int64(at))
		if deltas {
			delta := d.rec.RotateDelta(at)
			if d.send(wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: at, Delta: delta}) == nil {
				st.deltas++
			}
		} else {
			d.rec.Rotate(at)
		}
		_ = d.send(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at})
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

	// Drain: a final heartbeat at the horizon, then wait for the daemon to
	// echo THAT time back — a stale echo of an earlier periodic heartbeat
	// must not end the session while the daemon is still chewing through
	// the stream's tail (closing early would discard it, snapshot replies
	// included). A device that ended the session down (restarting or
	// quarantined) has nothing to drain.
	d.lastAt.Store(int64(horizon))
	if err := d.send(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: horizon}); err == nil {
		for waited := time.Duration(0); d.echoedAt.Load() < int64(horizon) && waited < 30*time.Second; waited += 10 * time.Millisecond {
			time.Sleep(10 * time.Millisecond)
		}
	}
	d.close()
	st.keys, st.frames = int(tv.KeysHandled), frames
	st.reports, st.ctrls = d.reports.Load(), d.ctrls.Load()
	st.restarts, st.quarantines = d.restarts.Load(), d.quarantines.Load()
	st.snapshots, st.stalls = d.snapshots.Load(), d.creditStalls.Load()
	return st, nil
}

// runFleet drives n concurrent remote TVs against the ingestion daemon.
func runFleet(addr, prefix string, n int, codec string, seed int64, duration, faultEvery, blocks int, pace float64, dur wire.Durability, deltas bool, schedule []faults.Fault) error {
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

	var ok, keys, frames int
	var reports, ctrls, restarts, quarantines, snapshots, sentDeltas, stalls uint64
	var firstErr error
	for i := range stats {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s-%06d: %w", prefix, i, errs[i])
			}
			continue
		}
		ok++
		keys += stats[i].keys
		frames += stats[i].frames
		reports += stats[i].reports
		ctrls += stats[i].ctrls
		restarts += stats[i].restarts
		quarantines += stats[i].quarantines
		snapshots += stats[i].snapshots
		sentDeltas += stats[i].deltas
		stalls += stats[i].stalls
	}
	slog.Info("fleet session done", "component", "fleet",
		"took", time.Since(start).String(), "completed", ok, "tvs", n, "keys", keys,
		"frames", frames, "reports", reports, "controls", ctrls, "restarts", restarts,
		"quarantines", quarantines, "snapshots", snapshots, "deltas", sentDeltas)
	if stalls > 0 {
		slog.Info("flow control honored", "component", "fleet", "credit_stalls", stalls)
	}
	if ok == 0 && firstErr != nil {
		return firstErr
	}
	if firstErr != nil {
		slog.Warn("first device failure", "component", "fleet", "err", firstErr)
	}
	return nil
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
