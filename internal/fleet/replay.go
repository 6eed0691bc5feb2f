package fleet

import (
	"fmt"
	"sync/atomic"

	"trader/internal/event"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/wire"
)

// This file is the recovery half of the journal integration: remote.go
// records every accepted frame write-ahead (Server.Journal); here a pool is
// rebuilt from that record. Replay is the paper's observe-record-replay
// loop closed: the monitor's verdicts survive the crash it observed.

// ReplayStats summarises one journal replay.
type ReplayStats struct {
	Frames      int // observation frames re-dispatched
	Heartbeats  int // heartbeat records re-applied as clock advances
	Actions     int // recovery-action records re-applied (controller decisions)
	Evidence    int // labeled diagnosis-evidence records (snapshot frames)
	Checkpoints int // checkpoint records restored (all planes)
	Sheds       int // shed-marker records re-applied to the shard counters
	Handoffs    int // handoff records re-applied (departures, arrivals, adopted baselines)
	Devices     int // devices rebuilt through the factory
	Skipped     int // records with nothing to replay (no ID, no event, foreign type)
}

func (st ReplayStats) String() string {
	return fmt.Sprintf("%d frames + %d heartbeats + %d recovery actions + %d evidence + %d checkpoint + %d shed + %d handoff records into %d devices (%d skipped)",
		st.Frames, st.Heartbeats, st.Actions, st.Evidence, st.Checkpoints, st.Sheds, st.Handoffs, st.Devices, st.Skipped)
}

// Replayer is the pool's side of a journal replay (journal.Plane): it
// rebuilds fleet state from the records Server.Journal wrote. The first
// record naming a device builds it through the factory — with SeedOf(id),
// exactly as live registration would — and every record then re-applies in
// journal order: observations re-dispatch through the same shard routing,
// heartbeats re-advance the device's virtual clock (re-firing silence
// sweeps and comparison windows). Settle is a pool barrier, so the rebuilt
// state is fully settled: Rollup on the result equals Rollup on a pool that
// ingested the same frames live.
//
// Replay invariants: records re-apply in journal order, which preserves
// each device's own frame order (the only order monitoring depends on —
// devices are independent); a device exists in the replayed pool iff the
// journal holds at least one of its frames; and a device's full journaled
// history replays as one continuous monitored lifetime — live
// disconnect/reconnect boundaries, which reset pool state, are not
// re-created. Devices already present in the pool (e.g. a second replay
// into the same pool) are reused, not rebuilt.
//
// Buffering contract. Replay rate is the daemon's time to recover, so Apply
// does not cross to a shard per record: the per-device records —
// observations, heartbeats, recovery actions, PlaneDevice checkpoints —
// append to a per-shard batch of small typed records, and a full batch
// (replayBatch records) is one shard command. The shard builds a device the
// first time a batch names an ID it does not hold. Batches are per shard
// and FIFO, so every device still sees its records in journal order. Three
// rules keep the buffering invisible:
//   - every other record (shed marker, handoff, shard or fleet checkpoint)
//     first submits every pending batch, then applies directly;
//   - a factory or checkpoint-restore failure on a shard is latched, and
//     the next Apply or Settle returns it;
//   - Settle submits what is pending, then runs the pool barrier, then
//     folds the shard-side device count into Stats — so when it returns,
//     every report the replayed records provoke has fired.
//
// Replay into a pool not yet serving traffic; the Replayer dispatches
// without external synchronisation.
type Replayer struct {
	// Stats summarises the records applied so far. Devices is complete
	// once Settle has returned.
	Stats ReplayStats

	pool    *Pool
	build   Factory       // the factory behind a RemoteDevice with no connection yet
	pending [][]replayRec // per shard, submitted at replayBatch records
	// free holds, per shard, the batch buffers not in use: a submit takes
	// the next pending buffer from it and the shard returns each batch it
	// has run, so at most replayInFlight batches per shard hold decoded
	// records in memory however far the reader could run ahead.
	free   []chan []replayRec
	built  atomic.Int64 // devices the shards built, folded into Stats by Settle
	failed atomic.Pointer[error]
}

// replayBatch is how many records a shard's batch holds before it is
// submitted: large enough that the closure and channel send per batch
// vanish per record, small enough that the shards start working while the
// reader is still decoding.
const replayBatch = 256

// replayInFlight bounds the batches queued per shard: enough that neither
// the reader nor a shard waits on the other in the steady state.
const replayInFlight = 8

// replayRec is one buffered per-device record: what the shard needs of the
// wire.Message and nothing else.
type replayRec struct {
	id string
	op replayOp
	at sim.Time         // opAdvance
	ev *event.Event     // opFeed
	cp *wire.Checkpoint // opRestore
}

type replayOp uint8

const (
	opFeed       replayOp = iota // observation: Device.Feed
	opAdvance                    // heartbeat: run the virtual clock to at
	opReset                      // recovery action below quarantine: re-arm the comparator
	opQuarantine                 // quarantine action: take the device out of service
	opRestore                    // PlaneDevice checkpoint: assign the state absolutely
)

// discardSend is the error sink of a device with no connection behind it.
func discardSend(wire.Message) error { return nil }

// Replayer returns the plane that replays journal records into p, building
// devices through factory. No connection exists to push error reports down;
// the reports still fan into the pool handlers and counters, and
// AttachDevice re-points the sink on reconnect.
func (p *Pool) Replayer(factory MonitorFactory) *Replayer {
	rp := &Replayer{pool: p, build: remoteFactory(factory, discardSend),
		pending: make([][]replayRec, len(p.shards)), free: make([]chan []replayRec, len(p.shards))}
	for i := range rp.pending {
		rp.pending[i] = make([]replayRec, 0, replayBatch)
		rp.free[i] = make(chan []replayRec, replayInFlight)
		for j := 0; j < replayInFlight; j++ {
			rp.free[i] <- make([]replayRec, 0, replayBatch)
		}
	}
	return rp
}

// Replay rebuilds fleet state from a journal: the replay driver run with
// the pool's Replayer as its only plane.
func (p *Pool) Replay(r *journal.Reader, factory MonitorFactory) (ReplayStats, error) {
	rp := p.Replayer(factory)
	err := journal.Replay(r, rp)
	return rp.Stats, err
}

// Apply re-applies one journal record to the pool.
func (rp *Replayer) Apply(m wire.Message) error {
	if err := rp.failure(); err != nil {
		return err
	}
	p, st, id := rp.pool, &rp.Stats, m.SUO
	switch m.Type {
	case wire.TypeInput, wire.TypeOutput, wire.TypeState, wire.TypeHeartbeat, wire.TypeControl:
		rec := replayRec{id: id}
		switch {
		case id == "":
			st.Skipped++
			return nil
		case m.Type == wire.TypeHeartbeat:
			st.Heartbeats++
			rec.op, rec.at = opAdvance, m.At
		case m.Type == wire.TypeControl:
			// A recovery action the controller journaled write-ahead (see
			// internal/control): replay reconstructs what the controller
			// *did*, not just what it saw, by re-applying the action's
			// pool-side effect at its journal position. Quarantine takes
			// the device back out of service; every other rung (tolerate,
			// reset, restart) re-armed the comparator when it ran live, so
			// it re-arms here too.
			st.Actions++
			rec.op = opReset
			if m.Control == wire.CtrlQuarantine {
				rec.op = opQuarantine
			}
		case m.Event == nil:
			st.Skipped++
			return nil
		default:
			st.Frames++
			rec.op, rec.ev = opFeed, m.Event
		}
		return rp.push(rec)
	case wire.TypeSnapshot, wire.TypeSpectrumDelta:
		// Labeled diagnosis evidence the engine journaled write-ahead of
		// folding it — pulled snapshots and continuous heartbeat deltas
		// alike. It carries no monitor state — the diagnosis plane folds
		// these records in the same pass — so the pool only counts it.
		st.Evidence++
	case wire.TypeShed:
		// A shed marker: the server refused these frames under queue
		// pressure, so there is nothing to re-dispatch — only the shard
		// shed counters to restore, keeping the replayed rollup balanced
		// against the live one. No device is built: shed counts are
		// shard-level, and any admitted frame for the ID builds it.
		if id == "" || m.Shed == nil {
			st.Skipped++
			return nil
		}
		if err := rp.flush(); err != nil {
			return err
		}
		p.AddShed(id, *m.Shed)
		st.Sheds++
	case wire.TypeHandoff:
		if err := rp.flush(); err != nil {
			return err
		}
		return rp.applyHandoff(m)
	case wire.TypeCheckpoint:
		return rp.applyCheckpoint(m)
	default:
		st.Skipped++ // meta records (e.g. traderd's profile marker)
	}
	return nil
}

// push buffers one per-device record, submitting its shard's batch when
// that fills.
func (rp *Replayer) push(rec replayRec) error {
	i := rp.pool.ShardOf(rec.id)
	rp.pending[i] = append(rp.pending[i], rec)
	if len(rp.pending[i]) < replayBatch {
		return nil
	}
	return rp.submit(i)
}

// submit hands shard i's pending batch to the shard, which owns the slice
// from here on.
func (rp *Replayer) submit(i int) error {
	recs := rp.pending[i]
	if len(recs) == 0 {
		return nil
	}
	rp.pending[i] = <-rp.free[i] // waits while the shard has replayInFlight batches queued
	err := rp.pool.send(i, func(s *shard) {
		rp.run(s, recs)
		rp.free[i] <- recs[:0]
	})
	if err != nil {
		rp.free[i] <- recs[:0] // a stopped pool fails every submit; none may wait for a buffer
	}
	return err
}

// flush submits every pending batch: what precedes a record applied
// directly, so that record cannot overtake a buffered one.
func (rp *Replayer) flush() error {
	for i := range rp.pending {
		if err := rp.submit(i); err != nil {
			return err
		}
	}
	return nil
}

// run applies one batch on its shard goroutine.
func (rp *Replayer) run(s *shard, recs []replayRec) {
	if rp.failed.Load() != nil {
		return // the replay is aborting
	}
	for i := range recs {
		r := &recs[i]
		d := s.devices[r.id]
		if d == nil {
			var err error
			if d, err = s.build(rp.pool, r.id, SeedOf(r.id), rp.build); err != nil {
				rp.fail(fmt.Errorf("fleet: replay device %q: %w", r.id, err))
				return
			}
			rp.built.Add(1)
		}
		switch r.op {
		case opFeed:
			s.feed(d, *r.ev)
		case opAdvance:
			if r.at > d.Kernel.Now() {
				d.Kernel.Run(r.at)
			}
		case opReset:
			if d.Monitor != nil {
				d.Monitor.Reset()
			}
		case opQuarantine:
			d.quarantined = true
		case opRestore:
			if err := d.restore(r.id, r.cp); err != nil {
				rp.fail(err)
				return
			}
		}
	}
}

// fail latches the first shard-side failure for the reader goroutine.
func (rp *Replayer) fail(err error) { rp.failed.CompareAndSwap(nil, &err) }

func (rp *Replayer) failure() error {
	if e := rp.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// applyHandoff re-applies a federation migration record (ARCHITECTURE.md
// §7.3/§7.4), journaled write-ahead on both sides of a device's move so
// replay reconstructs ownership exactly:
//   - departure (Out=true): the device left this edge; remove it and let
//     any later record rebuild it from scratch.
//   - arrival (Out=false, device checkpoint): the device joined this edge
//     mid-history; build it and assign the handed-over state absolutely,
//     like a PlaneDevice checkpoint.
//   - adopted baseline (no SUO, PlaneFleet checkpoint): a dead peer's pool
//     counters absorbed during failover.
func (rp *Replayer) applyHandoff(m wire.Message) error {
	p, st, id := rp.pool, &rp.Stats, m.SUO
	switch {
	case m.Handoff == nil:
		st.Skipped++
	case id != "" && m.Handoff.Out:
		if _, err := p.RemoveDevice(id); err != nil {
			return err
		}
		st.Handoffs++
	case id != "" && m.Checkpoint != nil:
		built, err := p.restoreHandoff(id, m.Checkpoint, rp.build)
		if err != nil {
			return err
		}
		if built {
			st.Devices++
		}
		st.Handoffs++
	case id == "" && m.Checkpoint != nil && m.Checkpoint.Plane == wire.PlaneFleet && m.Handoff.From != "":
		p.AdoptBaseline(m.Handoff.From, m.Checkpoint.Counters)
		st.Handoffs++
	default:
		// Aggregator range repoints and other ownership metadata: nothing
		// to rebuild in a pool.
		st.Skipped++
	}
	return nil
}

// applyCheckpoint restores the pool's own checkpoint records. Control- and
// diagnosis-plane snapshots belong to those planes, which restore them in
// the same pass; the pool only counts them.
func (rp *Replayer) applyCheckpoint(m wire.Message) error {
	cp := m.Checkpoint
	if cp == nil || (cp.Plane == wire.PlaneDevice && m.SUO == "") {
		rp.Stats.Skipped++
		return nil
	}
	switch cp.Plane {
	case wire.PlaneDevice:
		// A device snapshot: the shard builds the device if the checkpoint
		// is the first record naming it (the usual case — the records that
		// built it live in the truncated prefix), then assigns its state
		// absolutely.
		if err := rp.push(replayRec{id: m.SUO, op: opRestore, cp: cp}); err != nil {
			return err
		}
	case wire.PlaneShard:
		if err := rp.flush(); err != nil {
			return err
		}
		rp.pool.RestoreShardBaseline(cp)
	}
	rp.Stats.Checkpoints++
	return nil
}

// Settle ends a replay: pending batches, then the pool barrier.
func (rp *Replayer) Settle() error {
	if err := rp.flush(); err != nil {
		return err
	}
	if err := rp.pool.Sync(); err != nil {
		return err
	}
	rp.Stats.Devices += int(rp.built.Swap(0))
	return rp.failure()
}

// AddRemoteDevice registers a connection-backed device: the factory's
// kernel and monitor wrapped by RemoteDevice with the given sink, seeded by
// SeedOf(id). It is the single registration path shared by live ingestion
// (Server) and journal replay, so the two cannot diverge.
func (p *Pool) AddRemoteDevice(id string, factory MonitorFactory, send func(wire.Message) error) error {
	return p.AddDevice(id, SeedOf(id), remoteFactory(factory, send))
}

// remoteFactory is the device factory of a connection-backed device.
func remoteFactory(factory MonitorFactory, send func(wire.Message) error) Factory {
	return func(id string, seed int64) (*Device, error) {
		k, mon, err := factory(id, seed)
		if err != nil {
			return nil, err
		}
		return RemoteDevice(id, k, mon, send), nil
	}
}

// AttachDevice re-points a device's monitor→SUO traffic (error pushes) at a
// new sink, reporting whether the device exists and supports attachment
// (i.e. was built by RemoteDevice) along with the device's current virtual
// time. The ingestion server uses it to adopt a journal-recovered device
// when its client reconnects, instead of rejecting the ID as a duplicate
// and losing the recovered monitor state; the returned time re-anchors the
// connection's advance window so the client can resume with timestamps at
// or beyond its last acknowledged heartbeat.
func (p *Pool) AttachDevice(id string, send func(wire.Message) error) (at sim.Time, ok bool, err error) {
	err = p.call(id, func(s *shard) {
		if d := s.devices[id]; d != nil && d.Attach != nil {
			d.Attach(send)
			at, ok = d.Kernel.Now(), true
		}
	})
	return at, ok, err
}
