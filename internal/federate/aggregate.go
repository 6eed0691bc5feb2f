package federate

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// Aggregator is the upstream side of the federation tier: it accepts edge
// uplinks (RoleEdge Hellos), credits each rollup delta exactly once into a
// per-edge cumulative account, merges the accounts into the fleet-wide
// View, relays live migrations between edges, and — when an edge dies and
// Failover is set — directs a survivor to adopt the dead edge's journal
// and repoints its ranges. Configure the fields, then Serve listeners.
type Aggregator struct {
	// Ranges is the device-ID hash range count edges claim against
	// (fleet.RangeOf(id, Ranges)). Required, must match every edge's Of.
	Ranges int
	// Journal, when non-nil, receives every ownership change write-ahead —
	// range claims, per-device moves, failover repoints — so a replay
	// (Apply) rebuilds the range map after an aggregator restart. Credited rollup
	// totals are deliberately NOT journaled: a restarted aggregator's empty
	// resume baselines make each edge re-send its full cumulative state.
	Journal fleet.FrameJournal
	// Failover is the grace period after an edge uplink drops before the
	// aggregator directs a survivor to adopt its journal. Zero disables
	// automatic failover (Adopt can still be triggered by reconnection).
	Failover time.Duration
	// Tracer, when non-nil, records a receive-side uplink span for every
	// rollup delta that arrives carrying a trace context. The span adopts
	// the edge's trace ID — usually the edge's p999 tail-latency exemplar —
	// so the aggregator's /trace names the edge-side span chains behind the
	// tails it aggregates (§6.2).
	Tracer *trace.Tracer
	// Logf, when non-nil, receives rollup and lifecycle lines.
	Logf func(format string, args ...any)

	mu         sync.Mutex
	wg         sync.WaitGroup
	rmap       *RangeMap
	edges      map[string]*edgeSession // live uplinks
	state      map[string]*edgeState   // credited accounts (live and dead)
	listeners  []net.Listener
	done       chan struct{}
	closed     bool
	migrations uint64
	adoptions  uint64
	handoffs   uint64
	recovered  int // ownership records applied by the replay pass
}

// edgeState is one edge's credited account: the cumulative totals the
// aggregator has accepted from it, and the sequence number of the last
// credited delta (the dedup key for exactly-once crediting).
type edgeState struct {
	seq      uint64
	counters Counters
	devices  int64
	rng      int
	dir      string
	live     bool
	downAt   time.Time
}

// helloTimeout bounds the wait for an uplink's Hello.
const helloTimeout = 5 * time.Second

// edgeSession is one live uplink. Every aggregator→edge write goes through
// the Peer's deadline-guarded Send — relayed handoffs, migration and adoption
// directives run on goroutines serving other edges, so an edge that stops
// reading must lose its own uplink, not wedge theirs.
type edgeSession struct {
	id string
	*wire.Peer
}

func (a *Aggregator) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// init is called under a.mu by every entry point.
func (a *Aggregator) init() {
	if a.rmap == nil {
		a.rmap = NewRangeMap(a.Ranges)
		a.edges = make(map[string]*edgeSession)
		a.state = make(map[string]*edgeState)
		a.done = make(chan struct{})
	}
}

// Serve accepts edge uplinks on ln until the listener closes (returning
// nil after Close) or fails.
func (a *Aggregator) Serve(ln net.Listener) error {
	a.mu.Lock()
	a.init()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return nil
	}
	a.listeners = append(a.listeners, ln)
	a.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handle(nc)
		}()
	}
}

// Close stops the aggregator: listeners close, uplinks drop, pending
// failover timers cancel, and every handler goroutine has exited on return.
func (a *Aggregator) Close() {
	a.mu.Lock()
	a.init()
	if a.closed {
		a.mu.Unlock()
		a.wg.Wait()
		return
	}
	a.closed = true
	close(a.done)
	for _, ln := range a.listeners {
		ln.Close()
	}
	for _, s := range a.edges {
		s.Shut()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// handle runs one uplink: vet the edge Hello, send the resume baseline,
// then credit deltas and relay handoffs until the connection drops.
func (a *Aggregator) handle(nc net.Conn) {
	// A Peer: every write below — the Hello reply and a rejection included —
	// arms a write deadline first.
	c := wire.NewPeer(nc)
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := c.ReadHello()
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	id := hello.SUO
	reject := func(detail string) {
		c.RejectHello(id, detail)
		nc.Close()
	}
	if hello.Role != wire.RoleEdge || hello.Handoff == nil {
		reject("aggregator accepts edge uplinks only")
		return
	}
	claim := *hello.Handoff
	if id == "" {
		reject("edge hello without an ID")
		return
	}

	sess := &edgeSession{id: id, Peer: c}
	a.mu.Lock()
	a.init()
	st, detail := a.admit(sess, claim)
	a.mu.Unlock()
	if detail != "" {
		reject(detail)
		return
	}
	if _, err := c.ReplyHello(hello); err != nil {
		a.drop(sess)
		return
	}
	// Resume baseline: the cumulative totals already credited to this edge.
	// A fresh (or restarted) aggregator sends zeroes, making the edge's
	// first delta its full cumulative state.
	a.mu.Lock()
	base := wire.Message{Type: wire.TypeRollup, SUO: id, Rollup: &wire.RollupDelta{
		Seq: st.seq, Devices: st.devices, Counters: st.counters.ToWire()}}
	a.mu.Unlock()
	if err := c.Send(base); err != nil {
		a.drop(sess)
		return
	}
	a.logf("federate: aggregator: edge %s connected (range %d/%d, resume seq %d)",
		id, claim.Range, claim.Of, base.Rollup.Seq)

	for {
		m, err := c.Decode()
		if err != nil {
			break
		}
		switch {
		case m.Type == wire.TypeRollup && m.Rollup != nil:
			a.credit(st, m.Rollup)
			if rctx := trace.FromWire(m.Trace); rctx.Live() {
				// The edge attached a trace context (its current tail
				// exemplar): record the receive side under the same trace.
				a.Tracer.Span(rctx, trace.KindUplink, -1, id, time.Now(), 0, false)
			}
			// Always ack, even a stale retransmit: the ack is what lets the
			// edge rotate its baseline forward.
			if err := c.Send(wire.Ack(id, "", sim.Time(m.Rollup.Seq))); err != nil {
				goto out
			}
		case m.Type == wire.TypeHandoff:
			a.relayHandoff(id, m)
		case m.Type == wire.TypeAck && m.Control == wire.CtrlMigrate:
			a.mu.Lock()
			a.migrations++
			a.mu.Unlock()
			a.logf("federate: aggregator: device %s now live on %s", m.SUO, id)
		case m.Type == wire.TypeAck && m.Control == wire.CtrlAdopt:
			a.completeAdoption(id, m.SUO)
		case m.Type == wire.TypeHeartbeat:
			if err := c.Send(m); err != nil {
				goto out
			}
		}
	}
out:
	a.drop(sess)
}

// admit vets an edge claim under a.mu. It returns the edge's (possibly
// pre-existing) credited account, or a non-empty rejection detail.
func (a *Aggregator) admit(sess *edgeSession, claim wire.HandoffRecord) (*edgeState, string) {
	if a.closed {
		return nil, "aggregator shutting down"
	}
	if claim.Of != a.Ranges {
		return nil, fmt.Sprintf("range count mismatch: edge claims %d ranges, aggregator has %d", claim.Of, a.Ranges)
	}
	if claim.Range < 0 || claim.Range >= a.Ranges {
		return nil, fmt.Sprintf("range %d out of [0,%d)", claim.Range, a.Ranges)
	}
	if _, dup := a.edges[sess.id]; dup {
		return nil, "edge ID already connected"
	}
	if owner := a.rmap.Owner(claim.Range); owner != "" && owner != sess.id {
		if st := a.state[owner]; st != nil && st.live {
			return nil, fmt.Sprintf("range %d owned by live edge %s", claim.Range, owner)
		}
	}
	st := a.state[sess.id]
	if st == nil {
		st = &edgeState{counters: Counters{}}
		a.state[sess.id] = st
	}
	st.live = true
	st.rng = claim.Range
	st.dir = claim.Dir
	if a.rmap.Owner(claim.Range) != sess.id {
		a.rmap.Assign(claim.Range, sess.id)
		a.journal(wire.Message{Type: wire.TypeHandoff,
			Handoff: &wire.HandoffRecord{To: sess.id, Range: claim.Range, Of: a.Ranges, Dir: claim.Dir}})
	}
	a.edges[sess.id] = sess
	return st, ""
}

// journal appends an ownership record, called under a.mu. Ownership changes
// are rare (claims, migrations, failovers), so holding the lock across the
// group-commit fsync is fine; the write-ahead ordering is what matters.
func (a *Aggregator) journal(m wire.Message) {
	if a.Journal == nil {
		return
	}
	if err := a.Journal.Append(m); err != nil {
		a.logf("federate: aggregator: journal: %v", err)
	}
}

// credit folds one delta into an edge's account exactly once: deltas are
// credited in sequence order, and a sequence number at or below the last
// credited one is a retransmit of state already counted.
func (a *Aggregator) credit(st *edgeState, d *wire.RollupDelta) {
	a.mu.Lock()
	if d.Seq > st.seq {
		st.counters.Add(FromWire(d.Counters))
		st.devices = d.Devices
		st.seq = d.Seq
	}
	a.mu.Unlock()
}

// relayHandoff processes a migration frame from a source edge: journal the
// ownership move write-ahead, repoint the device in the range map, forward
// the frame (checkpoint and all) to the destination edge.
func (a *Aggregator) relayHandoff(src string, m wire.Message) {
	if m.SUO == "" || m.Handoff == nil {
		return
	}
	to := m.Handoff.To
	a.mu.Lock()
	a.journal(wire.Message{Type: wire.TypeHandoff, SUO: m.SUO,
		Handoff: &wire.HandoffRecord{From: m.Handoff.From, To: to}})
	a.rmap.Move(m.SUO, to)
	a.handoffs++
	dest := a.edges[to]
	a.mu.Unlock()
	if dest == nil {
		// The move is journaled and the device's state is safe in the
		// source's journal record; it comes back when the destination
		// connects and replays, or by adoption.
		a.logf("federate: aggregator: handoff of %s to %s: destination not connected", m.SUO, to)
		return
	}
	if err := dest.Send(m); err != nil {
		a.logf("federate: aggregator: forwarding handoff of %s to %s: %v", m.SUO, to, err)
	}
}

// drop marks an edge dead and, if Failover is set, arms the adoption timer.
func (a *Aggregator) drop(sess *edgeSession) {
	sess.Shut()
	a.mu.Lock()
	if a.edges[sess.id] != sess { // superseded by a reconnect
		a.mu.Unlock()
		return
	}
	delete(a.edges, sess.id)
	st := a.state[sess.id]
	if st != nil {
		st.live = false
		st.downAt = time.Now()
	}
	failover := a.Failover > 0 && !a.closed && st != nil
	a.mu.Unlock()
	a.logf("federate: aggregator: edge %s disconnected", sess.id)
	if failover {
		// Guaranteed to register before this handler's own wg.Done, so
		// Close's Wait covers the failover goroutine too.
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.failoverAfter(sess.id)
		}()
	}
}

// failoverAfter waits the grace period and, if the edge has not come back,
// directs the lowest-named live edge to adopt its journal.
func (a *Aggregator) failoverAfter(dead string) {
	t := time.NewTimer(a.Failover)
	defer t.Stop()
	select {
	case <-a.done:
		return
	case <-t.C:
	}
	a.mu.Lock()
	st := a.state[dead]
	if st == nil || st.live || a.closed {
		a.mu.Unlock()
		return
	}
	if st.dir == "" {
		a.mu.Unlock()
		a.logf("federate: aggregator: cannot fail over %s: no journal advertised", dead)
		return
	}
	var ids []string
	for id := range a.edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		a.mu.Unlock()
		a.logf("federate: aggregator: cannot fail over %s: no live edges", dead)
		return
	}
	survivor := a.edges[ids[0]]
	dir := st.dir
	a.mu.Unlock()
	a.logf("federate: aggregator: edge %s still down after %s; directing %s to adopt %s",
		dead, a.Failover, survivor.id, dir)
	err := survivor.Send(wire.Message{Type: wire.TypeControl, SUO: dead,
		Control: wire.CtrlAdopt, Target: dir})
	if err != nil {
		a.logf("federate: aggregator: adoption directive to %s: %v", survivor.id, err)
	}
}

// completeAdoption finishes a failover once the survivor acks CtrlAdopt:
// the dead edge's credited account is dropped and its ranges repointed.
// Ordering makes this conserve the merged view: the ack and the survivor's
// next delta travel the same FIFO uplink, so the drop lands before the
// survivor's inflated (post-adoption) cumulative state is credited.
func (a *Aggregator) completeAdoption(survivor, dead string) {
	a.mu.Lock()
	st := a.state[dead]
	if st == nil || st.live {
		a.mu.Unlock()
		a.logf("federate: aggregator: stale adoption ack for %s from %s ignored", dead, survivor)
		return
	}
	ranges := a.rmap.Repoint(dead, survivor)
	a.journal(wire.Message{Type: wire.TypeHandoff,
		Handoff: &wire.HandoffRecord{From: dead, To: survivor, Of: a.Ranges}})
	delete(a.state, dead)
	a.adoptions++
	a.mu.Unlock()
	a.logf("federate: aggregator: %s adopted %s (ranges %v repointed)", survivor, dead, ranges)
}

// Migrate directs a live migration: the device's current owner drains and
// hands it to the named edge. The move completes asynchronously — the
// range map repoints when the source's handoff frame arrives, and the
// destination's ack confirms the device is live again.
func (a *Aggregator) Migrate(device, to string) error {
	a.mu.Lock()
	a.init()
	owner := a.rmap.OwnerOf(device)
	src := a.edges[owner]
	dstState := a.state[to]
	a.mu.Unlock()
	if owner == "" {
		return fmt.Errorf("federate: no owner for device %q", device)
	}
	if owner == to {
		return fmt.Errorf("federate: device %q already on %q", device, to)
	}
	if src == nil {
		return fmt.Errorf("federate: owner %q of device %q not connected", owner, device)
	}
	if dstState == nil || !dstState.live {
		return fmt.Errorf("federate: destination %q not connected", to)
	}
	return src.Send(wire.Message{Type: wire.TypeControl, SUO: device,
		Control: wire.CtrlMigrate, Target: to})
}

// EdgeView is one edge's slice of the merged view.
type EdgeView struct {
	ID       string
	Live     bool
	Range    int
	Seq      uint64
	Devices  int64
	Counters Counters
}

// View is the aggregator's merged fleet-wide state: the sum of every
// credited per-edge account. Because all counters are order-independent
// integer folds, View equals what one daemon ingesting every device would
// report — the federation conservation law.
type View struct {
	Devices    int64
	Counters   Counters
	Edges      []EdgeView
	Migrations uint64
	Adoptions  uint64
	Handoffs   uint64
}

// View returns the current merged view. Edges are sorted by ID; dead edges
// whose accounts have not been adopted remain counted (their devices are
// still out there until failover decides otherwise).
func (a *Aggregator) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.init()
	v := View{Counters: Counters{}, Migrations: a.migrations,
		Adoptions: a.adoptions, Handoffs: a.handoffs}
	ids := make([]string, 0, len(a.state))
	for id := range a.state {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := a.state[id]
		v.Devices += st.devices
		v.Counters.Add(st.counters)
		v.Edges = append(v.Edges, EdgeView{ID: id, Live: st.live, Range: st.rng,
			Seq: st.seq, Devices: st.devices, Counters: st.counters.Clone()})
	}
	return v
}

// Owners returns the range map's current assignment, range index → edge ID.
func (a *Aggregator) Owners() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.init()
	out := make([]string, a.Ranges)
	for r := range out {
		out[r] = a.rmap.Owner(r)
	}
	return out
}

// OwnerOf returns the edge a device currently belongs to.
func (a *Aggregator) OwnerOf(device string) string {
	a.mu.Lock()
	a.init()
	m := a.rmap
	a.mu.Unlock()
	return m.OwnerOf(device)
}

// Apply is the aggregator's side of a journal replay (journal.Plane): it
// rebuilds the range map from an ownership journal written by a previous
// aggregator run — claims re-assign ranges, per-device moves re-apply,
// failover records repoint. Credited totals are NOT recovered — they come
// back through resume baselines as edges reconnect. Replay before Serve.
func (a *Aggregator) Apply(m wire.Message) error {
	if m.Type != wire.TypeHandoff || m.Handoff == nil {
		return nil
	}
	h := m.Handoff
	a.mu.Lock()
	defer a.mu.Unlock()
	a.init()
	switch {
	case m.SUO != "":
		a.rmap.Move(m.SUO, h.To)
	case h.From == "" && h.To != "":
		a.rmap.Assign(h.Range, h.To)
		if h.Dir != "" {
			st := a.state[h.To]
			if st == nil {
				st = &edgeState{counters: Counters{}}
				a.state[h.To] = st
			}
			st.rng, st.dir = h.Range, h.Dir
		}
	case h.From != "" && h.To != "":
		a.rmap.Repoint(h.From, h.To)
		delete(a.state, h.From)
	}
	a.recovered++
	return nil
}

// Settle ends a replay; ownership records apply as they are read, so there
// is nothing left to drain.
func (a *Aggregator) Settle() error { return nil }

// Recovered reports how many ownership records the replay applied.
func (a *Aggregator) Recovered() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recovered
}
