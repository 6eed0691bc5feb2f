package fleet

import (
	"fmt"
	"sort"
	"time"

	"trader/internal/wire"
)

// This file is the checkpoint half of the journal integration: a periodic
// snapshot of the fleet's monitor state written into each journal stream so
// replay can resume from the snapshot and read only the delta, instead of
// re-dispatching the whole history. Capture runs as the journal's frozen
// section (journal.Sharded.Checkpoint holds every stream's writer lock), so
// the snapshot corresponds to an exact prefix of every stream; restore is
// absolute assignment, so replaying pre-checkpoint records and then
// restoring converges to the same state.

// quarantineCounter is the pool-owned counter riding on each device-plane
// checkpoint record, next to the monitor's own counters (which ignore it).
const quarantineCounter = "fleet.quarantined"

// shardBaseline is one set of traffic counters: a shard's live ones, or a
// baseline restored from a PlaneShard checkpoint record or adopted from a
// dead edge. Live counters restart from zero after a crash; Rollup adds the
// baselines back so fleet totals survive restarts.
type shardBaseline struct {
	Dispatched       uint64
	Dropped          uint64
	Quarantined      uint64
	Reports          uint64
	ShedObservations uint64
	ShedHeartbeats   uint64
}

func (b *shardBaseline) add(o shardBaseline) {
	b.Dispatched += o.Dispatched
	b.Dropped += o.Dropped
	b.Quarantined += o.Quarantined
	b.Reports += o.Reports
	b.ShedObservations += o.ShedObservations
	b.ShedHeartbeats += o.ShedHeartbeats
}

// counters renders b in the PlaneShard counter-name convention
// (baselineFromCounters is the inverse).
func (b shardBaseline) counters() []wire.CheckpointCounter {
	return []wire.CheckpointCounter{
		{Name: "dispatched", V: b.Dispatched},
		{Name: "dropped", V: b.Dropped},
		{Name: "quarantined", V: b.Quarantined},
		{Name: "reports", V: b.Reports},
		{Name: "shed_obs", V: b.ShedObservations},
		{Name: "shed_hb", V: b.ShedHeartbeats},
	}
}

// traffic reads the shard's live traffic counters.
func (s *shard) traffic() shardBaseline {
	return shardBaseline{s.dispatched.Load(), s.dropped.Load(), s.quarantined.Load(),
		s.reports.Load(), s.shedObs.Load(), s.shedHB.Load()}
}

// restored sums the baselines the pool holds: restored from checkpoint
// records and adopted from dead edges.
func (p *Pool) restored() shardBaseline {
	var sum shardBaseline
	p.baseMu.Lock()
	for _, b := range p.baselines {
		sum.add(b)
	}
	p.baseMu.Unlock()
	return sum
}

// CheckpointJournal is the journal surface the Checkpointer drives:
// journal.Sharded is the production implementation.
type CheckpointJournal interface {
	Checkpoint(capture func() ([][]wire.Message, error)) error
	Shards() int
}

// CaptureCheckpoint snapshots the fleet into one record batch per shard,
// shaped for journal.Sharded.Checkpoint: every batch is checkpoint records
// only and ends with a Final PlaneShard record, which is what marks it a
// complete resume point for the Reader. Devices are captured on their own
// shard goroutines (a pool barrier), sorted by ID for byte-stable output.
// Devices without a monitor have no state worth snapshotting and are
// rebuilt from scratch by the post-checkpoint records instead.
//
// The caller may append plane records of its own (control, diagnosis) to a
// batch as long as they go BEFORE the Final record — see Checkpointer.
func (p *Pool) CaptureCheckpoint(profile string, gen uint64) ([][]wire.Message, error) {
	batches := make([][]wire.Message, len(p.shards))
	// A checkpoint truncates the records that installed the pool's
	// baselines, so shard 0's record carries them forward.
	carried := p.restored()
	err := p.barrier(func(s *shard) {
		ids := make([]string, 0, len(s.devices))
		for id := range s.devices {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		batch := make([]wire.Message, 0, len(ids)+1)
		for _, id := range ids {
			d := s.devices[id]
			if d.Monitor == nil {
				continue
			}
			cp := &wire.Checkpoint{
				Plane: wire.PlaneDevice,
				Shard: s.idx,
				Seq:   gen,
				At:    d.Kernel.Now(),
			}
			d.Monitor.CaptureInto(cp)
			if d.quarantined {
				cp.Counters = append(cp.Counters, wire.CheckpointCounter{Name: quarantineCounter, V: 1})
			}
			batch = append(batch, wire.Message{
				Type: wire.TypeCheckpoint, SUO: id, At: cp.At, Checkpoint: cp,
			})
		}
		counts := s.traffic()
		if s.idx == 0 {
			counts.add(carried)
		}
		batch = append(batch, wire.Message{Type: wire.TypeCheckpoint, Checkpoint: &wire.Checkpoint{
			Plane: wire.PlaneShard, Shard: s.idx, Seq: gen, Final: true, Profile: profile,
			Counters: counts.counters(),
		}})
		batches[s.idx] = batch
	})
	if err != nil {
		return nil, err
	}
	return batches, nil
}

// RestoreDeviceCheckpoint places one device at the state its PlaneDevice
// checkpoint record captured: the virtual clock jumps to the checkpoint
// instant, the monitor's counters, comparator state and spec-model
// configuration are assigned absolutely, and the pool-owned quarantine flag
// is re-applied. The device must already exist (replay builds it through
// the factory first).
func (p *Pool) RestoreDeviceCheckpoint(id string, cp *wire.Checkpoint) error {
	var err error
	if serr := p.call(id, func(s *shard) {
		if d, ok := s.devices[id]; ok {
			err = d.restore(id, cp)
		} else {
			err = fmt.Errorf("fleet: checkpoint for unknown device %q", id)
		}
	}); serr != nil {
		return serr
	}
	return err
}

// restore assigns a PlaneDevice checkpoint to the device the shard holds
// under id, on the shard goroutine.
func (d *Device) restore(id string, cp *wire.Checkpoint) error {
	if d.Monitor == nil {
		return fmt.Errorf("fleet: checkpoint for monitorless device %q", id)
	}
	d.Kernel.Jump(cp.At)
	for _, c := range cp.Counters {
		if c.Name == quarantineCounter {
			d.quarantined = c.V != 0
		}
	}
	return d.Monitor.RestoreFrom(cp)
}

// baselineFromCounters parses the PlaneShard counter-name convention into a
// baseline struct (unknown names are ignored, like unknown JSON fields).
func baselineFromCounters(counters []wire.CheckpointCounter) shardBaseline {
	var b shardBaseline
	for _, c := range counters {
		switch c.Name {
		case "dispatched":
			b.Dispatched = c.V
		case "dropped":
			b.Dropped = c.V
		case "quarantined":
			b.Quarantined = c.V
		case "reports":
			b.Reports = c.V
		case "shed_obs":
			b.ShedObservations = c.V
		case "shed_hb":
			b.ShedHeartbeats = c.V
		}
	}
	return b
}

// setBaseline installs a baseline under key, overwriting any previous value
// for the same key; Rollup sums across keys.
func (p *Pool) setBaseline(key string, b shardBaseline) {
	p.baseMu.Lock()
	if p.baselines == nil {
		p.baselines = make(map[string]shardBaseline)
	}
	p.baselines[key] = b
	p.baseMu.Unlock()
}

// RestoreShardBaseline re-applies a PlaneShard checkpoint record's traffic
// counters as the shard's rollup baseline. Restoring the same shard again
// (a later checkpoint in the same journal) overwrites, it does not add;
// baselines adopted from another edge's journal (AdoptBaseline) live under
// their own keys and are unaffected.
func (p *Pool) RestoreShardBaseline(cp *wire.Checkpoint) {
	p.setBaseline(fmt.Sprintf("shard-%d", cp.Shard), baselineFromCounters(cp.Counters))
}

// Checkpointer periodically writes global checkpoints: it freezes the
// sharded journal, snapshots the fleet (and any extra planes) and installs
// the batches as each stream's new resume point, truncating the segments
// the snapshot covers. One Checkpointer per daemon.
type Checkpointer struct {
	// Pool and Journal must agree on the shard count; Checkpoint refuses
	// to run otherwise (record routing and stream routing would diverge).
	Pool    *Pool
	Journal CheckpointJournal
	// Profile tags the Final records so a later boot can refuse to resume
	// a journal written under a different fleet profile.
	Profile string
	// Planes, when non-nil, contribute one checkpoint record each (the
	// control and diagnosis planes). They are called BEFORE the journal
	// freezes — the planes' own loops append to this journal, so calling
	// them under the stream locks could deadlock behind their next append —
	// and their records join shard 0's batch ahead of its Final record.
	Planes []func() wire.Message
	// Logf, when non-nil, receives one line per checkpoint attempt.
	Logf func(format string, args ...any)

	gen uint64 // checkpoint generation, monotonic per Checkpointer
}

// Checkpoint writes one global checkpoint.
func (c *Checkpointer) Checkpoint() error {
	if pc, jc := c.Pool.Shards(), c.Journal.Shards(); pc != jc {
		return fmt.Errorf("fleet: checkpoint: pool has %d shards, journal %d", pc, jc)
	}
	c.gen++
	gen := c.gen
	var planes []wire.Message
	for _, f := range c.Planes {
		planes = append(planes, f())
	}
	err := c.Journal.Checkpoint(func() ([][]wire.Message, error) {
		batches, err := c.Pool.CaptureCheckpoint(c.Profile, gen)
		if err != nil {
			return nil, err
		}
		if len(planes) > 0 {
			b0 := batches[0]
			final := b0[len(b0)-1]
			b0 = append(b0[:len(b0)-1:len(b0)-1], planes...)
			batches[0] = append(b0, final)
		}
		return batches, nil
	})
	if c.Logf != nil {
		if err != nil {
			c.Logf("fleet: checkpoint %d failed: %v", gen, err)
		} else {
			c.Logf("fleet: checkpoint %d written (%d devices)", gen, c.Pool.Size())
		}
	}
	return err
}

// Run writes a checkpoint every interval until done closes. Errors are
// logged and the loop keeps going: a failed checkpoint leaves the previous
// resume point in place, costing replay time, not correctness.
func (c *Checkpointer) Run(every time.Duration, done <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = c.Checkpoint()
		case <-done:
			return
		}
	}
}

// CounterRef binds one checkpoint counter name to the word it is captured
// from and restored into. A plane spells its record's Counters layout once,
// as a []CounterRef; capture, restore and the unknown-name check all read
// that one table.
type CounterRef struct {
	Name string
	V    *uint64
}

// CaptureCounters renders the table as checkpoint counters, in table order.
func CaptureCounters(table []CounterRef) []wire.CheckpointCounter {
	out := make([]wire.CheckpointCounter, len(table))
	for i, ref := range table {
		out[i] = wire.CheckpointCounter{Name: ref.Name, V: *ref.V}
	}
	return out
}

// RestoreCounters assigns each recorded counter to its table slot. A name
// the table does not hold is an error: the record is on-disk input, and a
// counter this build cannot place means it cannot restore the plane.
func RestoreCounters(table []CounterRef, counters []wire.CheckpointCounter) error {
next:
	for _, ct := range counters {
		for _, ref := range table {
			if ref.Name == ct.Name {
				*ref.V = ct.V
				continue next
			}
		}
		return fmt.Errorf("unknown checkpoint counter %q", ct.Name)
	}
	return nil
}
