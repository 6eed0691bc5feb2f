package control

import (
	"fmt"
	"sort"

	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

// Checkpoint capture/restore for the control plane: the escalation tally,
// every device's ladder position, and the recovery manager's restart
// accounting, flattened into one PlaneControl record. The fleet
// Checkpointer calls Checkpoint for each global checkpoint (the record
// rides in shard 0's batch); on boot the replay pass hands every record to
// Apply, and Settle plays the newest such record back.
//
// Capture happens on the controller goroutine — NOT under the journal's
// stream locks, since that goroutine appends to the journal — so a report
// can slip between the control-plane snapshot and the fleet freeze. That
// divergence is bounded by one mailbox drain and self-heals at the next
// checkpoint; the ladder tolerates re-seen evidence by design.

// counterTable fixes the Counters layout of a PlaneControl record: each
// name next to the word it is captured from and restored into. dropped
// stands in for the mailbox's shed counter. Controller-goroutine only.
func (c *Controller) counterTable(dropped *uint64) []fleet.CounterRef {
	t := &c.tally
	return []fleet.CounterRef{
		{Name: "Reports", V: &t.Reports}, {Name: "Dropped", V: dropped},
		{Name: "class.deviation", V: &t.Classes[ClassDeviation]},
		{Name: "class.silence", V: &t.Classes[ClassSilence]},
		{Name: "class.runaway", V: &t.Classes[ClassRunaway]},
		{Name: "rung.tolerate", V: &t.Rungs[RungTolerate]},
		{Name: "rung.reset", V: &t.Rungs[RungReset]},
		{Name: "rung.restart", V: &t.Rungs[RungRestart]},
		{Name: "rung.quarantine", V: &t.Rungs[RungQuarantine]},
		{Name: "Absorbed", V: &t.Absorbed}, {Name: "AfterQuarantine", V: &t.AfterQuarantine},
		{Name: "Deescalations", V: &t.Deescalations},
		{Name: "Acks", V: &t.Acks}, {Name: "PushFailures", V: &t.PushFailures},
		{Name: "JournalErrors", V: &t.JournalErrors},
		{Name: "RestartsCompleted", V: &c.mgr.RecoveriesCompleted},
	}
}

// Checkpoint snapshots the controller into a PlaneControl checkpoint
// record: a barrier, reports enqueued before it are reflected.
func (c *Controller) Checkpoint() (m wire.Message) {
	c.box.Do(func() { m = c.checkpoint() })
	return m
}

// checkpoint builds the record. Controller-goroutine only.
func (c *Controller) checkpoint() wire.Message {
	cp := &wire.Checkpoint{Plane: wire.PlaneControl, At: c.kernel.Now()}
	dropped := c.box.Dropped()
	cp.Counters = fleet.CaptureCounters(c.counterTable(&dropped))
	ids := make([]string, 0, len(c.devs))
	for id := range c.devs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := c.devs[id]
		var q uint64
		if d.quarantined {
			q = 1
		}
		var down uint64
		if u := c.mgr.Unit(id); u != nil {
			down = uint64(u.Downtime)
		}
		cp.Devices = append(cp.Devices, wire.CheckpointDevice{
			ID: id, At: d.lastAt,
			Stats: []uint64{uint64(d.rung), uint64(d.used), d.seen, uint64(d.burst), q, down},
		})
	}
	return wire.Message{Type: wire.TypeCheckpoint, At: cp.At, Checkpoint: cp}
}

// Restore places the controller at the state cp captured. Restore is
// absolute — counters, ladder positions and restart accounting are
// assigned, not accumulated — so restoring a second, newer checkpoint
// simply wins. Devices regain their recovery units (in the Running state:
// an in-flight restart at capture time is cut short, which only makes the
// ladder gentler).
func (c *Controller) Restore(cp *wire.Checkpoint) (err error) {
	if cp == nil || cp.Plane != wire.PlaneControl {
		return fmt.Errorf("control: restore needs a %s checkpoint", wire.PlaneControl)
	}
	c.box.Do(func() { err = c.restore(cp) })
	return err
}

// restore plays cp back. Controller-goroutine only.
func (c *Controller) restore(cp *wire.Checkpoint) error {
	dropped := c.box.Dropped()
	if err := fleet.RestoreCounters(c.counterTable(&dropped), cp.Counters); err != nil {
		return fmt.Errorf("control: %w", err)
	}
	c.box.SetDropped(dropped)
	// Restarts in flight at capture time are cut short (see Restore).
	c.mgr.RecoveriesStarted = c.mgr.RecoveriesCompleted
	for _, dev := range cp.Devices {
		if len(dev.Stats) != 6 {
			return fmt.Errorf("control: device %q checkpoint has %d stats, want 6", dev.ID, len(dev.Stats))
		}
		d := c.ensureDevice(dev.ID)
		d.rung = Rung(dev.Stats[0])
		d.used = int(dev.Stats[1])
		d.seen = dev.Stats[2]
		d.burst = int(dev.Stats[3])
		d.quarantined = dev.Stats[4] != 0
		d.lastAt = dev.At
		c.mgr.Unit(dev.ID).Downtime = sim.Time(dev.Stats[5])
	}
	c.advanceTo(cp.At)
	return nil
}

// Apply is the controller's side of a journal replay (journal.Plane): it
// notes each control-plane checkpoint record, and Settle restores the
// newest. Post-checkpoint TypeControl action records are not re-applied to
// the ladder (their pool-side effects replay through fleet.Replayer); the
// ladder resumes from the snapshot and climbs again on fresh evidence.
func (c *Controller) Apply(m wire.Message) error {
	if cp := m.Checkpoint; m.Type == wire.TypeCheckpoint && cp != nil && cp.Plane == wire.PlaneControl {
		c.newest = cp
	}
	return nil
}

// Settle ends a replay: the newest control-plane checkpoint the pass saw is
// restored, and only then does the controller subscribe to the pool's error
// reports — the reports the replayed frames raised on the way are history
// the restored ladder already accounts for, not fresh evidence to act on
// (or journal) a second time.
func (c *Controller) Settle() error {
	if cp := c.newest; cp != nil {
		c.newest = nil
		if err := c.Restore(cp); err != nil {
			return err
		}
		c.recovered = 1
	}
	c.subscribe.Do(func() { c.pool.OnReport(c.Report) })
	return nil
}

// Recovered reports how many journal records the last replay restored from:
// 1 when a control-plane checkpoint was found, else 0.
func (c *Controller) Recovered() int { return c.recovered }
