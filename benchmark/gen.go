package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// This file turns -seed into inputs: device IDs, the mix_v1 observation
// stream and the fleet_recover journal. The daemon only ever sees the bytes
// generated here; the same seed gives the same bytes (TestDeterminism).

// suoProfile is the -suo profile every workload runs under: the light
// monitor (one observable "x", Threshold 0.25, Tolerance 1, 10 ms compare
// timer) is the cheapest real monitor, so the path around it dominates.
const suoProfile = "light"

// rng is splitmix64: eight bytes of state, so 20 000 journal devices can
// each own one (math/rand's source is ~5 KB).
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// subSeed derives an independent stream seed for (seed, lane).
func subSeed(seed int64, lane int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane))
	r.next()
	return r
}

// deviceID returns a seed-derived ID that fleet.RangeOf places on shard
// want of shards. The suffix search makes placement a property of the
// inputs; fleet.pool.shard_skew then measures it from the daemon's scrape.
func deviceID(seed int64, i, want, shards int) string {
	prefix := fmt.Sprintf("b%08x-%05d-", uint32(subSeed(seed, -1)), i)
	for k := 0; ; k++ {
		id := prefix + strconv.Itoa(k)
		if fleet.RangeOf(id, shards) == want {
			return id
		}
	}
}

// burst is one injected deviation: two consecutive output frames whose x is
// one above the commanded level. The light monitor tolerates one deviation
// and reports the second, so each burst must draw exactly one error frame
// with these values.
type burst struct {
	expected, actual float64
}

const (
	free       = iota // next frame is drawn from the mix
	secondDev         // next frame is the second deviating output of a burst
	healthyOut        // next frame is an output at the commanded level
)

// mix is one device's mix_v1 stream: 80 % output out{x}, 15 % state
// mode{mode}, 5 % input set{x}. An input is always followed by an output at
// the newly commanded level, so the monitor sees at most one stale
// time-based comparison per command and a healthy stream never reports.
// Virtual time advances 1 ms per observation: the light monitor's 10 ms
// comparison timer fires once per ten frames.
type mix struct {
	id         string
	rng        rng
	at         sim.Time
	level      float64
	n          int
	state      int
	burstEvery int // start a burst at every burstEvery'th observation (0: never)
	burstAt    int // additionally start one at this observation (0: never)

	// ev and val back the frame handed to the codec, so generating a frame
	// allocates nothing.
	ev  event.Event
	val [1]event.Value
}

func newMix(id string, r rng, burstEvery int) *mix {
	return &mix{id: id, rng: r, burstEvery: burstEvery}
}

// next advances the stream by one observation. The returned message points
// into m and is valid until the next call. b is non-nil on the second
// deviating frame of a burst — the frame an error report answers.
func (m *mix) next() (msg wire.Message, b *burst) {
	m.n++
	m.at += sim.Millisecond
	m.ev = event.Event{Kind: event.Output, Name: "out", Source: m.id, At: m.at, Seq: uint64(m.n)}
	m.val[0] = event.Value{Name: "x", V: m.level}
	typ := wire.TypeOutput
	startBurst := m.state == free &&
		(m.burstEvery > 0 && m.n%m.burstEvery == 0 || m.n == m.burstAt)
	switch {
	case m.state == secondDev:
		m.val[0].V = m.level + 1
		m.state = healthyOut
		b = &burst{expected: m.level, actual: m.level + 1}
	case m.state == healthyOut:
		m.state = free
	case startBurst:
		m.val[0].V = m.level + 1
		m.state = secondDev
	default:
		switch r := m.rng.intn(100); {
		case r < 80:
		case r < 95:
			typ = wire.TypeState
			m.ev.Kind, m.ev.Name = event.State, "mode"
			m.val[0] = event.Value{Name: "mode", V: float64(m.rng.intn(8))}
		default:
			typ = wire.TypeInput
			m.level = float64(m.rng.intn(100))
			m.ev.Kind, m.ev.Name = event.Input, "set"
			m.val[0].V = m.level
			m.state = healthyOut
		}
	}
	m.ev.Values = m.val[:]
	return wire.Message{Type: typ, SUO: m.id, Event: &m.ev, At: m.at}, b
}

// heartbeat is the flush-barrier probe at the stream's current time.
func (m *mix) heartbeat() wire.Message {
	return wire.Message{Type: wire.TypeHeartbeat, SUO: m.id, At: m.at}
}

// appendFrameWith appends msg as one §2 frame: u32 length, then the payload
// in codec.
func appendFrameWith(dst []byte, codec wire.Codec, msg wire.Message) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := codec.Append(dst, msg)
	if err != nil {
		panic(err) // only an unknown message type fails, and gen emits none
	}
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// appendFrame is appendFrameWith in the binary codec every stream uses.
func appendFrame(dst []byte, msg wire.Message) []byte {
	return appendFrameWith(dst, wire.Binary, msg)
}

// appendObs appends n observation frames and returns the bursts completed
// among them, in stream order.
func (m *mix) appendObs(dst []byte, n int, bursts []burst) ([]byte, []burst) {
	for i := 0; i < n; i++ {
		msg, b := m.next()
		dst = appendFrame(dst, msg)
		if b != nil {
			bursts = append(bursts, *b)
		}
	}
	return dst, bursts
}

// Journal shape of fleet_recover: every device contributes journalRounds
// rounds of journalRoundObs observations closed by a heartbeat, interleaved
// across devices like live traffic.
const (
	journalRounds   = 5
	journalRoundObs = 10
	// One device in journalBurstOneIn carries a deviation burst, so replay
	// has error reports to rebuild.
	journalBurstOneIn = 100
)

// journalSpec is what writeJournal wrote: the numbers a cold boot must
// report back.
type journalSpec struct {
	devices      int
	records      int // every record, marker included
	observations int
	reports      int
	resume       []*mix // the first keep devices' streams, positioned after their last journaled frame
}

// writeJournal writes the fleet_recover journal: devices × 55 records in
// shards streams (the daemon must boot with the same -shards), led by the
// profile marker traderd itself writes. keep is how many leading devices'
// generators to return for the live phase after the boot.
func writeJournal(dir string, seed int64, devices, shards, keep int) (*journalSpec, error) {
	jw, err := journal.CreateSharded(dir, shards, journal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	spec := &journalSpec{devices: devices}
	appendRec := func(msg wire.Message) error {
		spec.records++
		return jw.AppendThen(msg, false, nil)
	}
	spec.records++
	err = jw.AppendShard(0, wire.Message{Type: wire.TypeHello, SUO: "traderd", Target: suoProfile})
	mixes := make([]*mix, devices)
	pick := subSeed(seed, -2)
	for j := range mixes {
		mixes[j] = newMix(deviceID(seed, j, j%shards, shards), subSeed(seed, j), 0)
		if pick.intn(journalBurstOneIn) == 0 {
			mixes[j].burstAt = 2 + pick.intn(journalRounds*journalRoundObs-8)
		}
	}
	for r := 0; r < journalRounds && err == nil; r++ {
		for _, m := range mixes {
			for i := 0; i < journalRoundObs && err == nil; i++ {
				msg, b := m.next()
				if b != nil {
					spec.reports++
				}
				spec.observations++
				err = appendRec(msg)
			}
			if err == nil {
				err = appendRec(m.heartbeat())
			}
		}
	}
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing journal: %w", err)
	}
	spec.resume = mixes[:keep:keep]
	return spec, nil
}

// clone copies the stream so a cold boot can resume it from the journal's
// end more than once.
func (m *mix) clone() *mix {
	c := *m
	return &c
}
