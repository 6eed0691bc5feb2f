package federate

import (
	"fmt"
	"net"
	"sort"
	"time"

	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/trace"
	"trader/internal/wire"
)

// Edge is the uplink side of an edge ingester: it owns the daemon's pool
// (devices keep connecting to the edge's own fleet.Server exactly as
// before) and maintains one connection to the aggregator, streaming rollup
// deltas and executing the adoptions the aggregator directs. Configure the
// fields, then call Run once.
type Edge struct {
	// ID names the edge fleet-wide (the SUO of its uplink Hello). Required.
	ID string
	// Upstream is the aggregator address in wire.SplitAddr notation
	// ("tcp:host:port" or a Unix socket path). Required.
	Upstream string
	// Range of Of is the contiguous device-ID hash range this edge claims
	// (fleet.RangeOf(id, Of) == Range for every device it serves). Of must
	// match the aggregator's configured range count.
	Range, Of int
	// Codec is the uplink payload codec (default binary).
	Codec string
	// Sample reads the edge's cumulative fleet state (see PoolSampler).
	// Required.
	Sample Sampler
	// Pool is the edge daemon's monitor pool, the destination of adopted
	// devices. Required.
	Pool *fleet.Pool
	// Factory rebuilds monitors for devices arriving by adoption.
	// Required.
	Factory fleet.MonitorFactory
	// Journal, when non-nil, receives handoff records write-ahead of every
	// device this edge adopts, so replaying the edge's journal
	// reconstructs exactly the devices it owns. Point it at the
	// same journal the edge's fleet.Server appends frames to.
	Journal fleet.FrameJournal
	// JournalDir is the directory behind Journal, advertised in the Hello
	// so the aggregator can direct a surviving peer to adopt it after this
	// edge dies. Empty disables adoption of this edge.
	JournalDir string
	// Flush is the rollup-delta cadence (default 250ms).
	Flush time.Duration
	// Tracer, when non-nil, records federation uplink/ack spans and makes
	// each rollup delta carry the edge's current p999 tail-latency exemplar
	// as its wire trace context (§6.2) — the link that lets the aggregator
	// resolve an edge's tail spike to the span chain that produced it,
	// across the federation tier. Give it the same tracer as the edge's
	// fleet.Server and Pool so the exemplar's trace ID resolves locally.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives uplink lifecycle lines.
	Logf func(format string, args ...any)
}

func (e *Edge) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// Run dials the aggregator and streams until done closes, redialing with
// backoff after any uplink failure. Deltas survive reconnects: the
// aggregator's resume baseline tells the edge what has been credited, and
// the next delta carries everything since.
func (e *Edge) Run(done <-chan struct{}) {
	flush := e.Flush
	if flush <= 0 {
		flush = 250 * time.Millisecond
	}
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-done:
			return
		default:
		}
		c, err := e.dial()
		if err == nil {
			backoff = 100 * time.Millisecond
			err = e.session(c, flush, done)
			c.Close()
		}
		select {
		case <-done:
			return
		default:
		}
		if err != nil {
			e.logf("federate: edge %s: uplink: %v (redial in %s)", e.ID, err, backoff)
		}
		select {
		case <-done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// dial opens the uplink socket only; session performs the Hello, so a
// refused claim retries at the base backoff like any other session failure.
func (e *Edge) dial() (*wire.Conn, error) {
	network, address, err := wire.SplitAddr(e.Upstream)
	if err != nil {
		return nil, err
	}
	nc, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(nc), nil
}

// session runs one uplink conversation: edge handshake, resume baseline,
// then the flush loop interleaved with whatever the aggregator pushes.
func (e *Edge) session(c *wire.Conn, flush time.Duration, done <-chan struct{}) error {
	codec := e.Codec
	if codec == "" {
		codec = wire.CodecBinary
	}
	claim := wire.HandoffRecord{From: e.ID, Range: e.Range, Of: e.Of, Dir: e.JournalDir}
	if _, err := c.Handshake(wire.Message{SUO: e.ID, Codec: codec, Role: wire.RoleEdge, Handoff: &claim}); err != nil {
		return err
	}
	base, err := c.Decode()
	if err != nil {
		return fmt.Errorf("reading resume baseline: %w", err)
	}
	if base.Type != wire.TypeRollup || base.Rollup == nil {
		return fmt.Errorf("expected resume baseline, got %q", base.Type)
	}
	acked := FromWire(base.Rollup.Counters)
	ackedDevices := base.Rollup.Devices
	seq := base.Rollup.Seq
	e.logf("federate: edge %s: uplink established (resume seq %d)", e.ID, seq)

	type incoming struct {
		m   wire.Message
		err error
	}
	inc := make(chan incoming)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		for {
			m, err := c.Decode()
			select {
			case inc <- incoming{m, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	var inflight *Sample
	// inflightCtx/inflightSent trace the in-flight delta: the uplink span
	// is recorded at send, the ack span closes the round trip when the
	// aggregator credits it.
	var inflightCtx trace.Context
	var inflightSent time.Time
	flushNow := func() error {
		if inflight != nil {
			return nil // one delta in flight at a time
		}
		cur := e.Sample()
		delta := cur.Counters.Diff(acked)
		if len(delta) == 0 && cur.Devices == ackedDevices && seq > 0 {
			return nil // nothing changed since the last credited flush
		}
		seq++
		m := wire.Message{Type: wire.TypeRollup, SUO: e.ID,
			Rollup: &wire.RollupDelta{Seq: seq, Devices: cur.Devices, Counters: delta.ToWire()}}
		inflightCtx, inflightSent = trace.Context{}, time.Now()
		if e.Tracer != nil && e.Pool != nil {
			// The rollup rides under the edge's current p999 exemplar trace
			// when there is one (joining the ingest chain it names — that is
			// how an aggregator-side tail spike resolves back down to one
			// edge frame's lifecycle), or under a fresh trace otherwise.
			lat := e.Pool.Latency()
			ctx := trace.Context{Trace: lat.Exemplar(0.999)}
			if !ctx.Live() {
				ctx = e.Tracer.Force()
			}
			// Uplink spans are frequent steady-state traffic, so they live
			// in the sampled rings, not the forced ring the control plane's
			// never-lose spans are asserted against.
			inflightCtx = e.Tracer.Span(ctx, trace.KindUplink, -1, e.ID, inflightSent, 0, false)
			m.Trace = inflightCtx.Wire()
		}
		if err := c.Encode(m); err != nil {
			return err
		}
		inflight = &cur
		return nil
	}
	if err := flushNow(); err != nil {
		return err
	}
	t := time.NewTicker(flush)
	defer t.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-t.C:
			if err := flushNow(); err != nil {
				return err
			}
		case in := <-inc:
			if in.err != nil {
				return in.err
			}
			m := in.m
			switch {
			case m.Type == wire.TypeAck && m.Control == "":
				if inflight != nil && uint64(m.At) == seq {
					acked = inflight.Counters
					ackedDevices = inflight.Devices
					inflight = nil
					if inflightCtx.Live() {
						// Close the uplink exchange: the ack span carries the
						// delta's full uplink round-trip time.
						e.Tracer.Span(inflightCtx, trace.KindAck, -1, e.ID, inflightSent, time.Since(inflightSent), false)
						inflightCtx = trace.Context{}
					}
				}
			case m.Type == wire.TypeControl && m.Control == wire.CtrlAdopt:
				if err := e.adoptAndAck(c, m.SUO, m.Target); err != nil {
					return err
				}
			case m.Type == wire.TypeHeartbeat:
				if err := c.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: e.ID, At: m.At}); err != nil {
					return err
				}
			}
		}
	}
}

func (e *Edge) adoptAndAck(c *wire.Conn, source, dir string) error {
	st, err := e.Adopt(source, dir)
	if err != nil {
		e.logf("federate: edge %s: adopting %s (%s) failed: %v", e.ID, source, dir, err)
		return nil // stay connected; the operator sees the log
	}
	e.logf("federate: edge %s: adopted %s: %s", e.ID, source, st)
	return c.Encode(wire.Ack(source, wire.CtrlAdopt, 0))
}

// Adopt absorbs a dead peer's journal (ARCHITECTURE.md §7.3): the journal
// replays into a scratch pool — full fidelity, checkpoints included — and
// every recovered device is then handed off from the scratch pool into the
// edge's own, each arrival journaled write-ahead, followed by the peer's
// pool-level counters as an adopted baseline record. After Adopt, replaying
// THIS edge's journal alone reproduces the merged fleet: the peer's journal
// is no longer needed. The edge's next rollup delta then re-credits
// everything the peer had, which is exactly what the aggregator dropped
// when it repointed the peer's ranges — the merged view is conserved.
func (e *Edge) Adopt(source, dir string) (fleet.ReplayStats, error) {
	r, err := journal.OpenReader(dir)
	if err != nil {
		return fleet.ReplayStats{}, err
	}
	tmp := fleet.NewPool(fleet.Options{Shards: e.Pool.Shards()})
	defer tmp.Stop()
	st, err := tmp.Replay(r, e.Factory)
	r.Close()
	if err != nil {
		return st, err
	}
	ids := make([]string, 0, len(tmp.DeviceStats()))
	for id := range tmp.DeviceStats() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cp, err := tmp.HandoffDevice(id)
		if err != nil {
			return st, err
		}
		rec := wire.Message{Type: wire.TypeHandoff, SUO: id, At: cp.At,
			Handoff: &wire.HandoffRecord{From: source, To: e.ID}, Checkpoint: cp}
		if e.Journal != nil {
			if err := e.Journal.Append(rec); err != nil {
				return st, err
			}
		}
		if err := e.Pool.RestoreHandoff(id, cp, e.Factory); err != nil {
			return st, err
		}
	}
	base := fleet.AdoptBaselineRecord(source, e.ID, tmp.Rollup())
	if e.Journal != nil {
		if err := e.Journal.Append(base); err != nil {
			return st, err
		}
	}
	e.Pool.AdoptBaseline(source, base.Checkpoint.Counters)
	return st, nil
}
