package main

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

// Chaos mode: a soak harness that throws every hostile connection shape the
// overload plane defends against at a live traderd, all at once, for a wall
// clock duration — while a slice of well-behaved devices keeps streaming so
// the daemon's latency SLO is measured under fire, not in a vacuum. Each
// device plays one role, round-robin:
//
//	steady    — credit-compliant streaming at a modest pace (the baseline
//	            whose p99 the SLO is stated over)
//	flood     — credit-compliant but unpaced: sends as fast as grants allow,
//	            stalling into heartbeats when the window is dry
//	hostile   — ignores its credit window entirely; the daemon must
//	            disconnect it with a violation error, over and over
//	churn     — connects, streams a little, disconnects cleanly, reconnects
//	flap      — half-open connections: handshakes, goes silent, vanishes
//	slowread  — streams but never reads its downstream, so the daemon's
//	            pushes back up into its write deadline
//	byzantine — well-formed handshake, then garbage: corrupt payloads,
//	            oversized frame headers, runaway timestamps
//
// The harness asserts nothing itself — it is the load half of the overload
// e2e story. The judgment lives on the daemon: its /metrics endpoint must
// show tier-ordered sheds (control always zero) and a within-SLO p99 for
// the admitted stream; CI's chaos smoke job curls exactly that.

// chaosRoles in round-robin order; indexes 7+ of each group of 8 are steady,
// so a quarter of the fleet is baseline traffic.
var chaosRoles = []string{"flood", "hostile", "churn", "flap", "slowread", "byzantine", "steady", "steady"}

// chaosTally is one role's aggregated outcome across the fleet and the run.
type chaosTally struct {
	conns     atomic.Uint64 // successful handshakes
	dialErrs  atomic.Uint64 // refused/failed dials (daemon may be saturated)
	frames    atomic.Uint64 // observation frames pushed onto the wire
	drops     atomic.Uint64 // connections the daemon terminated on us
	errFrames atomic.Uint64 // error frames received (violations, vetting)
	stalls    atomic.Uint64 // credit-window stalls honored (compliant roles)
}

// chaosDial hands back the raw conn next to the wire conn: chaos roles need
// read deadlines (a shed heartbeat has no echo; a blocked Decode must not
// outlive the soak) and raw byte access (byzantine frames).
func chaosDial(addr, id, codec string, dur wire.Durability) (net.Conn, *wire.Conn, uint32, error) {
	network, address, err := wire.SplitAddr(addr)
	if err != nil {
		return nil, nil, 0, err
	}
	raw, err := net.Dial(network, address)
	if err != nil {
		return nil, nil, 0, err
	}
	wc := wire.NewConn(raw)
	reply, err := wc.Handshake(wire.Message{SUO: id, Codec: codec, Durability: dur})
	if err != nil {
		raw.Close()
		return nil, nil, 0, err
	}
	return raw, wc, reply.Credits, nil
}

// chaosObsMessage is the observation chaos devices stream: in-spec (x = 0),
// so admitted frames cost the monitors comparisons, not deviation handling.
func chaosObsMessage(id string, at sim.Time) wire.Message {
	ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", 0)
	return wire.Message{Type: wire.TypeOutput, SUO: id, Event: &ev, At: at}
}

// runChaos drives the soak: n devices, one goroutine each, playing their
// role in a loop until the wall deadline. -duration is wall seconds here —
// chaos is a wall-clock soak, not a virtual-time scenario.
func runChaos(addr, prefix string, n int, codec string, seed int64, wallSecs int, dur wire.Durability, deltas bool, blocks int) error {
	slog.Info("chaos soak starting", "component", "chaos",
		"devices", n, "addr", addr, "wall_seconds", wallSecs,
		"roles", "flood,hostile,churn,flap,slowread,byzantine,steady")
	if deltas {
		slog.Info("compliant roles piggyback spectrum deltas", "component", "chaos", "blocks", blocks)
	}
	deadline := time.Now().Add(time.Duration(wallSecs) * time.Second)
	tallies := make(map[string]*chaosTally, len(chaosRoles))
	for _, r := range chaosRoles {
		if tallies[r] == nil {
			tallies[r] = &chaosTally{}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		role := chaosRoles[i%len(chaosRoles)]
		id := fmt.Sprintf("%s-%s-%04d", prefix, role, i)
		t := tallies[role]
		rng := sim.NewKernel(seed + int64(i)).Rand()
		jitter := time.Duration(rng.Intn(20)) * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(jitter) // stagger the initial stampede
			for time.Now().Before(deadline) {
				switch role {
				case "steady":
					chaosCompliant(addr, id, codec, dur, t, deadline, time.Millisecond, deltas, blocks)
				case "flood":
					chaosCompliant(addr, id, codec, dur, t, deadline, 0, deltas, blocks)
				case "hostile":
					chaosHostile(addr, id, codec, dur, t, deadline)
				case "churn":
					chaosChurn(addr, id, codec, dur, t)
				case "flap":
					chaosFlap(addr, id, codec, dur, t, rng.Intn(150))
				case "slowread":
					chaosSlowRead(addr, id, codec, dur, t, deadline)
				case "byzantine":
					chaosByzantine(addr, id, codec, dur, t, rng.Intn(3))
				}
				time.Sleep(10 * time.Millisecond) // let the daemon reap the ID
			}
		}()
	}
	wg.Wait()

	slog.Info("chaos soak done", "component", "chaos")
	for _, role := range []string{"steady", "flood", "hostile", "churn", "flap", "slowread", "byzantine"} {
		t := tallies[role]
		slog.Info("chaos role outcome", "component", "chaos", "role", role,
			"conns", t.conns.Load(), "dial_failures", t.dialErrs.Load(),
			"frames", t.frames.Load(), "dropped", t.drops.Load(),
			"error_frames", t.errFrames.Load(), "credit_stalls", t.stalls.Load())
	}
	// The soak's only local invariant: the daemon outlived all of it. The
	// steady baseline must have kept streaming; everything else is judged
	// on the daemon side (/metrics: control sheds zero, p99 in SLO).
	if tallies["steady"].frames.Load() == 0 {
		return fmt.Errorf("steady baseline streamed nothing — the daemon did not survive the soak")
	}
	return nil
}

// chaosCompliant is one compliant session: stream observations honoring the
// credit window (solicit-and-drain on exhaustion), heartbeat periodically,
// disconnect cleanly at the deadline. pace 0 floods as fast as grants
// allow; otherwise it sleeps pace per frame. With deltas on, every drain
// heartbeat carries a small spectrum delta first — the continuous-diagnosis
// traffic a real device piggybacks, kept flowing while the hostile roles
// rage, so the soak proves the diagnosis inbox sheds nothing
// (trader_diagnose_dropped_total stays 0).
func chaosCompliant(addr, id, codec string, dur wire.Durability, t *chaosTally, deadline time.Time, pace time.Duration, deltas bool, blocks int) {
	raw, wc, credits, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	defer raw.Close()
	window := credits != 0
	at := sim.Time(0)
	// drain sends a heartbeat and reads until its echo, crediting every
	// grant on the way. A shed heartbeat (tier 2) yields no echo: the read
	// deadline turns that silence into a retry, exactly like a real client
	// waiting out the daemon's backpressure.
	drain := func() bool {
		at += 10 * sim.Millisecond
		if deltas {
			// Seq tracks virtual time, so it is strictly increasing within
			// the session; a later session's restart from low Seqs is simply
			// deduped by the engine's fold mark, never an error.
			d := &wire.SpectrumDelta{Seq: uint64(at), Blocks: blocks,
				Index: []uint32{0}, Words: []uint64{1}}
			if wc.Encode(wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: at, Delta: d}) != nil {
				t.drops.Add(1)
				return false
			}
		}
		if wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}) != nil {
			t.drops.Add(1)
			return false
		}
		for {
			_ = raw.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			msg, err := wc.Decode()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					return time.Now().Before(deadline) // shed echo: retry outside
				}
				t.drops.Add(1)
				return false
			}
			switch msg.Type {
			case wire.TypeCredit:
				credits += msg.Credits
			case wire.TypeHeartbeat:
				credits += msg.Credits
				if msg.At == at {
					return true
				}
			case wire.TypeError:
				t.errFrames.Add(1)
			}
		}
	}
	for time.Now().Before(deadline) {
		if window && credits == 0 {
			t.stalls.Add(1)
			if !drain() {
				return
			}
			continue
		}
		at += 5 * sim.Millisecond
		if wc.Encode(chaosObsMessage(id, at)) != nil {
			t.drops.Add(1)
			return
		}
		t.frames.Add(1)
		if window {
			credits--
		}
		if pace > 0 {
			time.Sleep(pace)
		}
		if at%(500*sim.Millisecond) == 0 && !drain() {
			return
		}
	}
}

// chaosHostile ignores the credit window: it blasts observations without
// ever heartbeating. Under flow control the daemon must kill it with a
// credit-violation error; without, the burst bound ends the session.
func chaosHostile(addr, id, codec string, dur wire.Durability, t *chaosTally, deadline time.Time) {
	raw, wc, _, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	defer raw.Close()
	at := sim.Time(0)
	for i := 0; i < 10000 && time.Now().Before(deadline); i++ {
		at += sim.Millisecond
		if wc.Encode(chaosObsMessage(id, at)) != nil {
			t.drops.Add(1)
			break
		}
		t.frames.Add(1)
	}
	// Read out the verdict (the violation error frame, then the close).
	for {
		_ = raw.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		msg, err := wc.Decode()
		if err != nil {
			return
		}
		if msg.Type == wire.TypeError {
			t.errFrames.Add(1)
		}
	}
}

// chaosChurn is registration pressure: stream briefly, leave cleanly,
// reconnect (the caller loops).
func chaosChurn(addr, id, codec string, dur wire.Durability, t *chaosTally) {
	raw, wc, credits, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	defer raw.Close()
	burst := 5
	if credits != 0 && int(credits) < burst {
		burst = int(credits) // churners are compliant too
	}
	at := sim.Time(0)
	for i := 0; i < burst; i++ {
		at += sim.Millisecond
		if wc.Encode(chaosObsMessage(id, at)) != nil {
			t.drops.Add(1)
			return
		}
		t.frames.Add(1)
	}
	_ = wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at})
}

// chaosFlap is the half-open client: handshake, silence, vanish. The
// daemon's reaper (heartbeat-less connections, write deadlines) must keep
// the registration table from leaking.
func chaosFlap(addr, id, codec string, dur wire.Durability, t *chaosTally, idleMs int) {
	raw, _, _, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	time.Sleep(time.Duration(50+idleMs) * time.Millisecond)
	raw.Close() // abrupt: no drain heartbeat, no goodbye
}

// chaosSlowRead streams but never reads its downstream. Heartbeat echoes
// back up into the socket until the daemon's write deadline fires and it
// drops us — the stalled-reader defense, exercised.
func chaosSlowRead(addr, id, codec string, dur wire.Durability, t *chaosTally, deadline time.Time) {
	raw, wc, credits, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	defer raw.Close()
	at := sim.Time(0)
	budget := int64(credits)
	for time.Now().Before(deadline) {
		at += sim.Millisecond
		if credits != 0 && budget == 0 {
			// Stay credit-compliant (this role tests read-side stalling,
			// not the violation path): heartbeat and assume the echo's
			// full-window grant — which is sitting unread in the socket.
			if wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}) != nil {
				t.drops.Add(1)
				return
			}
			budget = int64(credits)
			continue
		}
		if wc.Encode(chaosObsMessage(id, at)) != nil {
			t.drops.Add(1)
			return
		}
		t.frames.Add(1)
		if credits != 0 {
			budget--
		}
	}
}

// chaosByzantine handshakes cleanly and then speaks garbage — each call one
// of three dialects. Every variant must end with the daemon closing just
// this connection.
func chaosByzantine(addr, id, codec string, dur wire.Durability, t *chaosTally, variant int) {
	raw, wc, _, err := chaosDial(addr, id, codec, dur)
	if err != nil {
		t.dialErrs.Add(1)
		return
	}
	t.conns.Add(1)
	defer raw.Close()
	switch variant {
	case 0:
		// A framed payload that decodes to nothing in either codec.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 5)
		_, _ = raw.Write(hdr[:])
		_, _ = raw.Write([]byte{0xff, 0xfe, '{', '{', '{'})
	case 1:
		// A header announcing a frame larger than MaxFrame.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
		_, _ = raw.Write(hdr[:])
	default:
		// A runaway timestamp: one heartbeat asking for ~293 years of
		// virtual time, which the advance window must refuse.
		_ = wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: sim.Time(1) << 62})
	}
	// The daemon answers with an error frame and/or a close; read it out.
	for {
		_ = raw.SetReadDeadline(time.Now().Add(time.Second))
		msg, err := wc.Decode()
		if err != nil {
			return
		}
		if msg.Type == wire.TypeError {
			t.errFrames.Add(1)
		}
	}
}
