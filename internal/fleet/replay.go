package fleet

import (
	"errors"
	"fmt"

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
// Replay into a pool not yet serving traffic; the Replayer dispatches
// without external synchronisation.
type Replayer struct {
	// Stats summarises the records applied so far.
	Stats ReplayStats

	pool    *Pool
	factory MonitorFactory
	seen    map[string]bool
}

// Replayer returns the plane that replays journal records into p, building
// devices through factory.
func (p *Pool) Replayer(factory MonitorFactory) *Replayer {
	return &Replayer{pool: p, factory: factory, seen: make(map[string]bool)}
}

// Replay rebuilds fleet state from a journal: the replay driver run with
// the pool's Replayer as its only plane.
func (p *Pool) Replay(r *journal.Reader, factory MonitorFactory) (ReplayStats, error) {
	rp := p.Replayer(factory)
	err := journal.Replay(r, rp)
	return rp.Stats, err
}

// ensure builds the device on the first record naming it. No connection
// exists to push error reports down; the reports still fan into the pool
// handlers and counters, and AttachDevice re-points the sink on reconnect.
func (rp *Replayer) ensure(id string) error {
	if rp.seen[id] {
		return nil
	}
	err := rp.pool.AddRemoteDevice(id, rp.factory, func(wire.Message) error { return nil })
	switch {
	case err == nil:
		rp.Stats.Devices++
	case errors.Is(err, ErrDuplicateDevice):
		// already present — reuse it
	default:
		return fmt.Errorf("fleet: replay device %q: %w", id, err)
	}
	rp.seen[id] = true
	return nil
}

// Apply re-applies one journal record to the pool.
func (rp *Replayer) Apply(m wire.Message) error {
	p, st, id := rp.pool, &rp.Stats, m.SUO
	switch m.Type {
	case wire.TypeInput, wire.TypeOutput, wire.TypeState, wire.TypeHeartbeat, wire.TypeControl:
		if id == "" {
			st.Skipped++
			return nil
		}
		if err := rp.ensure(id); err != nil {
			return err
		}
		switch {
		case m.Type == wire.TypeHeartbeat:
			st.Heartbeats++
			return p.AdvanceDevice(id, m.At)
		case m.Type == wire.TypeControl:
			// A recovery action the controller journaled write-ahead (see
			// internal/control): replay reconstructs what the controller
			// *did*, not just what it saw, by re-applying the action's
			// pool-side effect at its journal position. Quarantine takes
			// the device back out of service; every other rung (tolerate,
			// reset, restart) re-armed the comparator when it ran live, so
			// it re-arms here too.
			st.Actions++
			if m.Control == wire.CtrlQuarantine {
				_, err := p.QuarantineDevice(id)
				return err
			}
			_, err := p.ResetDevice(id)
			return err
		case m.Event == nil:
			st.Skipped++
		default:
			st.Frames++
			return p.Dispatch(id, *m.Event)
		}
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
		p.AddShed(id, *m.Shed)
		st.Sheds++
	case wire.TypeHandoff:
		return rp.applyHandoff(m)
	case wire.TypeCheckpoint:
		return rp.applyCheckpoint(m)
	default:
		st.Skipped++ // meta records (e.g. traderd's profile marker)
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
		delete(rp.seen, id)
		st.Handoffs++
	case id != "" && m.Checkpoint != nil:
		if err := p.RestoreHandoff(id, m.Checkpoint, rp.factory); err != nil {
			return err
		}
		if !rp.seen[id] {
			st.Devices++
			rp.seen[id] = true
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
		// A device snapshot: build the device if the checkpoint is the
		// first record naming it (the usual case — the records that built
		// it live in the truncated prefix), then assign its state
		// absolutely.
		if err := rp.ensure(m.SUO); err != nil {
			return err
		}
		if err := rp.pool.RestoreDeviceCheckpoint(m.SUO, cp); err != nil {
			return err
		}
	case wire.PlaneShard:
		rp.pool.RestoreShardBaseline(cp)
	}
	rp.Stats.Checkpoints++
	return nil
}

// Settle is the pool barrier that ends a replay.
func (rp *Replayer) Settle() error { return rp.pool.Sync() }

// AddRemoteDevice registers a connection-backed device: the factory's
// kernel and monitor wrapped by RemoteDevice with the given sink, seeded by
// SeedOf(id). It is the single registration path shared by live ingestion
// (Server) and journal replay, so the two cannot diverge.
func (p *Pool) AddRemoteDevice(id string, factory MonitorFactory, send func(wire.Message) error) error {
	return p.AddDevice(id, SeedOf(id), func(id string, seed int64) (*Device, error) {
		k, mon, err := factory(id, seed)
		if err != nil {
			return nil, err
		}
		return RemoteDevice(id, k, mon, send), nil
	})
}

// AttachDevice re-points a device's monitor→SUO traffic (error pushes) at a
// new sink, reporting whether the device exists and supports attachment
// (i.e. was built by RemoteDevice) along with the device's current virtual
// time. The ingestion server uses it to adopt a journal-recovered device
// when its client reconnects, instead of rejecting the ID as a duplicate
// and losing the recovered monitor state; the returned time re-anchors the
// connection's advance window so the client can resume with timestamps at
// or beyond its last acknowledged heartbeat.
func (p *Pool) AttachDevice(id string, send func(wire.Message) error) (sim.Time, bool, error) {
	type result struct {
		at sim.Time
		ok bool
	}
	res := make(chan result, 1)
	if err := p.send(p.ShardOf(id), func(s *shard) {
		d := s.devices[id]
		if d == nil || d.Attach == nil {
			res <- result{}
			return
		}
		d.Attach(send)
		res <- result{at: d.Kernel.Now(), ok: true}
	}); err != nil {
		return 0, false, err
	}
	r := <-res
	return r.at, r.ok, nil
}
