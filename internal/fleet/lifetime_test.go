package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/faults"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

// lifetimeRecords is the least a lifetime journal holds: four times the
// reader's pipeline (16 chunks of 256 records), so every chunk's event
// storage and every replay batch is recycled several times over.
const lifetimeRecords = 4 * 16 * 256

// ownedPlane hands its plane a deep copy of every record: the reference a
// replay of borrowed events must be indistinguishable from.
type ownedPlane struct{ journal.Plane }

func (o ownedPlane) Apply(m wire.Message) error {
	if e := m.Event; e != nil {
		c := *e
		c.Values = slices.Clone(e.Values)
		m.Event = &c
	}
	return o.Plane.Apply(m)
}

// lightLifetimeJournal writes rounds of commands, echoes (every ninth
// device's off by one, so reports fire) and heartbeats for 64 light
// devices.
func lightLifetimeJournal(t *testing.T, w *journal.Sharded) {
	const devices = 64
	for round, n := 0, 0; n < lifetimeRecords; round++ {
		at := sim.Time(round+1) * sim.Millisecond
		for d := 0; d < devices; d++ {
			id := DeviceID(d)
			x := float64((round + d) % 11)
			echo := x
			if d%9 == 0 {
				echo++
			}
			in := event.Event{Kind: event.Input, Name: "set", Source: id, At: at}.With("x", x)
			out := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", echo)
			msgs := []wire.Message{
				{Type: wire.TypeInput, SUO: id, Event: &in, At: at},
				{Type: wire.TypeOutput, SUO: id, Event: &out, At: at},
			}
			if round%5 == 4 {
				msgs = append(msgs, wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at + 10*sim.Millisecond})
			}
			for _, m := range msgs {
				if err := w.Append(m); err != nil {
					t.Fatal(err)
				}
			}
			n += len(msgs)
		}
	}
}

// tvLifetimeJournal journals what four simulated TVs publish while a remote
// presses keys — audio events carry two values, screen events seven — with
// a heartbeat per TV each virtual second. One TV's audio is skewed from
// its third second on, so its monitor reports.
func tvLifetimeJournal(t *testing.T, w *journal.Sharded) {
	type tv struct {
		id string
		k  *sim.Kernel
		tv *tvsim.TV
	}
	n, wide := 0, 0
	types := map[event.Kind]wire.MsgType{event.Input: wire.TypeInput, event.Output: wire.TypeOutput, event.State: wire.TypeState}
	var tvs []tv
	for i := 0; i < 4; i++ {
		k := sim.NewKernel(int64(i + 1))
		x := tv{id: fmt.Sprintf("tv-%d", i), k: k, tv: tvsim.New(k, tvsim.Config{})}
		if i == 0 {
			x.tv.Injector().Schedule(faults.Fault{ID: "audio-skew", Kind: faults.ValueCorruption, Target: "audio", At: 3 * sim.Second, Param: -15})
		}
		x.tv.Bus().Subscribe("", func(e event.Event) {
			typ := types[e.Kind]
			if typ == "" {
				return
			}
			if err := w.Append(wire.Message{Type: typ, SUO: x.id, Event: &e, At: e.At}); err != nil {
				t.Error(err)
			}
			if len(e.Values) >= 7 {
				wide++
			}
			n++
		})
		x.tv.PressKey(tvsim.KeyPower)
		tvs = append(tvs, x)
	}
	keys := []tvsim.Key{tvsim.KeyVolUp, tvsim.KeyChUp, tvsim.KeyText, tvsim.KeyText, tvsim.KeyVolDown, tvsim.KeyMenu, tvsim.KeyMenu, tvsim.KeyDual, tvsim.KeyChDown, tvsim.KeyDual}
	for s := 1; n < lifetimeRecords; s++ {
		for i, x := range tvs {
			x.k.Run(sim.Time(s) * sim.Second)
			x.tv.PressKey(keys[(s+i)%len(keys)])
			if err := w.Append(wire.Message{Type: wire.TypeHeartbeat, SUO: x.id, At: x.k.Now()}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if wide == 0 {
		t.Fatal("the TV journal holds no seven-value event")
	}
}

// tvFactory is traderd's -suo tv monitor factory.
func tvFactory(string, int64) (*sim.Kernel, *core.Monitor, error) {
	k := sim.NewKernel(1)
	mon, err := tvsim.NewMonitor(k, tvsim.Config{})
	return k, mon, err
}

// The lifetime oracle: Reader.Next lends each record's event only until
// the next record, and the Replayer copies what its batches keep. Replaying
// a journal as shipped must therefore equal replaying deep copies of every
// record — the same Rollup and byte-identical per-device checkpoint
// records — on a light journal and on a TV journal of multi-value events.
func TestReplayerBorrowedEventsMatchOwnedCopies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		write   func(*testing.T, *journal.Sharded)
		factory MonitorFactory
	}{
		{"light", lightLifetimeJournal, LightMonitorFactory()},
		{"tv", tvLifetimeJournal, tvFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const shards = 2
			dir := t.TempDir()
			w, err := journal.CreateSharded(dir, shards, journal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			tc.write(t, w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			replay := func(owned bool) (Stats, []byte) {
				p := NewPool(Options{Shards: shards})
				defer p.Stop()
				r, err := journal.OpenReader(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				var plane journal.Plane = p.Replayer(tc.factory)
				if owned {
					plane = ownedPlane{plane}
				}
				if err := journal.Replay(r, plane); err != nil {
					t.Fatal(err)
				}
				if r.Records() < lifetimeRecords {
					t.Fatalf("journal holds %d records, want ≥ %d", r.Records(), lifetimeRecords)
				}
				batches, err := p.CaptureCheckpoint("", 1)
				if err != nil {
					t.Fatal(err)
				}
				var recs []byte
				for _, batch := range batches {
					for _, m := range batch {
						if recs, err = wire.Binary.Append(recs, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				return p.Rollup(), recs
			}
			gotRoll, gotRecs := replay(false)
			wantRoll, wantRecs := replay(true)
			if gotRoll != wantRoll {
				t.Errorf("Rollup:\n got: %+v\nwant: %+v", gotRoll, wantRoll)
			}
			if !bytes.Equal(gotRecs, wantRecs) {
				t.Errorf("checkpoint records differ: %d bytes replayed as shipped, %d from owned copies", len(gotRecs), len(wantRecs))
			}
			if wantRoll.Reports == 0 || wantRoll.Monitor.Comparisons == 0 {
				t.Errorf("journal provoked too little: %+v", wantRoll)
			}
		})
	}
}
