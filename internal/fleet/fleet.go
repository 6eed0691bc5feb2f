// Package fleet scales the paper's single-device awareness monitor to the
// deployed-fleet setting its industry-as-laboratory premise implies:
// millions of high-volume devices (TVs) in the field, each carrying its own
// monitor, with fleet-level aggregation of error reports and counters.
//
// A Pool runs N device monitors — each a sim.Kernel + specification model +
// core.Monitor — across a fixed set of worker shards. Events are routed to
// a device's shard by an FNV-1a hash of the device ID, so routing is
// deterministic and a device's state is only ever touched by one goroutine
// (the simulation kernel and state machine are single-threaded by design;
// sharding restores concurrency *between* devices without locking *inside*
// them). Broadcast and Advance enqueue one command per shard, not per
// device, keeping the channel traffic proportional to the shard count.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/journal"
	"trader/internal/metrics"
	"trader/internal/sim"
	"trader/internal/trace"
	"trader/internal/wire"
)

// ErrStopped is returned by operations on a pool after Stop.
var ErrStopped = errors.New("fleet: pool stopped")

// ErrDuplicateDevice is wrapped by AddDevice when the ID is already
// present. The ingestion server distinguishes it from other admission
// failures: a pool slot occupied with no connection behind it is a device
// rebuilt by journal recovery, which a reconnecting client adopts instead
// of being rejected (see Server.Journal and Pool.Replay).
var ErrDuplicateDevice = errors.New("duplicate device")

// Options configures a Pool.
type Options struct {
	// Shards is the number of worker goroutines (default GOMAXPROCS).
	Shards int
	// Queue is the per-shard command buffer length (default 1024).
	Queue int
	// Tracer, when non-nil, records dispatch and monitor spans for frames
	// whose ingest was sampled (DispatchAt under a live context). Unsampled
	// frames — and a nil tracer — follow the exact pre-tracing hot path.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 1024
	}
}

// Stats is the fleet-level rollup.
type Stats struct {
	Devices int
	Shards  int
	// Monitor sums every device monitor's counters.
	Monitor core.MonitorStats
	// Dispatched counts events delivered to a device's Feed.
	Dispatched uint64
	// Dropped counts targeted events whose device was unknown.
	Dropped uint64
	// Quarantined counts events dropped because their device was
	// quarantined by the recovery control plane.
	Quarantined uint64
	// Reports counts error reports fanned in from device monitors.
	Reports uint64
	// ShedObservations and ShedHeartbeats count frames the ingestion
	// server refused under queue pressure, by load-shedding tier (see
	// Server.ShedObservationsAt): observations drop first, heartbeats only
	// under near-saturation. Shed frames never reach a monitor and are
	// never journaled — markers restore these counters on replay instead.
	ShedObservations uint64
	ShedHeartbeats   uint64
	// ShedControl exists so operators can assert the shedding contract and
	// is always zero: control, ack, snapshot and error traffic — the
	// diagnosis and recovery planes — is never shed.
	ShedControl uint64
}

// Pool is a sharded monitor pool. All methods are safe for concurrent use.
type Pool struct {
	opts   Options
	shards []*shard
	wg     sync.WaitGroup

	// opMu serialises command submission against Stop closing the shard
	// channels: submitters hold the read side, Stop the write side.
	opMu    sync.RWMutex
	stopped bool

	mu       sync.Mutex // guards handlers
	handlers []func(device string, r wire.ErrorReport)

	devices atomic.Int64

	// baseMu guards baselines: counter values restored from checkpoint
	// records ("shard-N" keys, overwritten by later checkpoints of the same
	// shard) or adopted from another edge's journal after a federation
	// failover ("adopt-<edge>" keys; see AdoptBaseline). Rollup adds them
	// to the live shard counters, which restart from zero after a crash.
	baseMu    sync.Mutex
	baselines map[string]shardBaseline

	// term is closed once every shard worker has exited; receiving from it
	// orders reads of the shards' final counters after their last writes.
	term chan struct{}
}

// shard owns a disjoint subset of the fleet's devices. Its devices map and
// every device in it are touched only by the shard's worker goroutine, so
// device simulation needs no locks. Traffic counters are per-shard so the
// dispatch hot path never touches a cache line shared between shards; the
// rollup sums them with atomic loads.
type shard struct {
	idx         int
	cmds        chan func(*shard)
	devices     map[string]*Device
	dispatched  atomic.Uint64
	dropped     atomic.Uint64
	quarantined atomic.Uint64
	reports     atomic.Uint64
	shedObs     atomic.Uint64
	shedHB      atomic.Uint64
	// lat is the shard's ingest-to-dispatch latency histogram, recorded by
	// DispatchAt on the shard goroutine (the SLO plane's raw material).
	lat *metrics.Histogram
	// final is the shard's monitor-counter sum at shutdown, written by the
	// worker just before it exits and published to readers by Pool.term.
	final core.MonitorStats
}

// NewPool creates the pool and starts its shard workers; devices can be
// added immediately. Stop shuts it down.
func NewPool(opts Options) *Pool {
	opts.fill()
	p := &Pool{opts: opts, term: make(chan struct{})}
	for i := 0; i < opts.Shards; i++ {
		s := &shard{idx: i, cmds: make(chan func(*shard), opts.Queue),
			devices: make(map[string]*Device), lat: metrics.New()}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range s.cmds {
				fn(s)
			}
			for _, d := range s.devices {
				if d.Monitor != nil {
					s.final.Add(d.Monitor.Stats())
				}
				d.close()
			}
		}()
	}
	return p
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return p.opts.Shards }

// Size returns the current device count.
func (p *Pool) Size() int { return int(p.devices.Load()) }

// RangeOf returns the bucket in [0,n) the device ID hashes to: the FNV-1a
// fold journal.ShardOf routes records to streams with — one function, so
// the pool's shards, the journal's streams and the federation tier's
// device-ID ranges cannot disagree. A device's edge and its shard within
// that edge are the one hash taken modulo two different counts.
func RangeOf(id string, n int) int { return journal.ShardOf(id, n) }

// ShardOf returns the shard index the device ID routes to. The mapping is a
// pure function of the ID and the shard count (RangeOf over the shard
// count). The fold inlines over the string: this sits on the per-event
// dispatch path and must not allocate.
func (p *Pool) ShardOf(id string) int {
	return RangeOf(id, len(p.shards))
}

// send submits fn to shard i unless the pool is stopped.
func (p *Pool) send(i int, fn func(*shard)) error {
	p.opMu.RLock()
	defer p.opMu.RUnlock()
	if p.stopped {
		return ErrStopped
	}
	p.shards[i].cmds <- fn
	return nil
}

// sendAll submits fn to every shard unless the pool is stopped.
func (p *Pool) sendAll(fn func(*shard)) error {
	p.opMu.RLock()
	defer p.opMu.RUnlock()
	if p.stopped {
		return ErrStopped
	}
	for _, s := range p.shards {
		s.cmds <- fn
	}
	return nil
}

// barrier submits fn to every shard and waits for all of them to run it.
// Commands queued earlier are processed first, so a nil fn acts as a flush.
func (p *Pool) barrier(fn func(*shard)) error {
	var wg sync.WaitGroup
	wg.Add(len(p.shards))
	err := p.sendAll(func(s *shard) {
		if fn != nil {
			fn(s)
		}
		wg.Done()
	})
	if err != nil {
		return err
	}
	wg.Wait()
	return nil
}

// Sync blocks until every command submitted before it has been processed.
func (p *Pool) Sync() error { return p.barrier(nil) }

// AdvanceDevice runs one device's virtual clock forward to at, firing its
// monitor's timers (time-based comparison, silence sweeps) on the way; it
// is a no-op if the clock is already past at or the device is unknown. The
// ingestion server calls it for each heartbeat, so a remote SUO that goes
// quiet — but keeps heartbeating — still gets its MaxSilence deadlines
// checked, and a drain heartbeat closes out the final comparison window.
func (p *Pool) AdvanceDevice(id string, at sim.Time) error {
	return p.send(p.ShardOf(id), func(s *shard) {
		if d, ok := s.devices[id]; ok && at > d.Kernel.Now() {
			d.Kernel.Run(at)
		}
	})
}

// FlushDevice blocks until every command submitted before it for the
// device's shard has been processed — a single-shard Sync. The ingestion
// server uses it to give heartbeats flush-barrier semantics: once the
// heartbeat echo is on the wire, every earlier observation on that
// connection has been through its monitor.
func (p *Pool) FlushDevice(id string) error {
	return p.call(id, func(*shard) {})
}

// call runs fn on the shard that owns the device ID and waits for it: send
// plus the wait. The synchronous per-device commands are built on it, their
// results leaving through the variables fn captures.
func (p *Pool) call(id string, fn func(*shard)) error {
	done := make(chan struct{})
	if err := p.send(p.ShardOf(id), func(s *shard) { fn(s); close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// AddDevice builds a device on its owning shard (the factory runs on the
// shard goroutine) and wires its monitor's error reports into the fleet
// fan-in. Devices can be added while dispatch traffic is in flight.
func (p *Pool) AddDevice(id string, seed int64, f Factory) error {
	if id == "" {
		return errors.New("fleet: device needs an ID")
	}
	var err error
	if serr := p.call(id, func(s *shard) {
		if _, dup := s.devices[id]; dup {
			err = fmt.Errorf("fleet: %w %q", ErrDuplicateDevice, id)
			return
		}
		_, err = s.build(p, id, seed, f)
	}); serr != nil {
		return serr
	}
	return err
}

// build runs the factory for a device the shard does not hold yet and wires
// its monitor's error reports into the fleet fan-in: the one construction
// path, shared by AddDevice and journal replay. It runs on the shard
// goroutine.
func (s *shard) build(p *Pool, id string, seed int64, f Factory) (*Device, error) {
	d, err := f(id, seed)
	if err != nil {
		return nil, fmt.Errorf("fleet: building device %q: %w", id, err)
	}
	if d.Monitor != nil {
		d.Monitor.OnError(func(r wire.ErrorReport) { p.report(s, id, r) })
	}
	s.devices[id] = d
	p.devices.Add(1)
	return d, nil
}

// RemoveDevice stops and removes a device, reporting whether it was present.
// Its monitor counters leave the fleet rollup with it.
func (p *Pool) RemoveDevice(id string) (found bool, err error) {
	err = p.call(id, func(s *shard) {
		var d *Device
		if d, found = s.devices[id]; found {
			s.remove(p, id, d)
		}
	})
	return found, err
}

// remove closes a device the shard holds and takes it out of the pool.
func (s *shard) remove(p *Pool, id string, d *Device) {
	d.close()
	delete(s.devices, id)
	p.devices.Add(-1)
}

// QuarantineDevice takes a device out of service: subsequent dispatches and
// broadcasts to it are dropped (counted in Stats.Quarantined) while its
// monitor state stays in the pool, so a post-mortem still sees what the
// device had done. The flag survives connection churn — a quarantined remote
// device that reconnects is adopted quarantined, not returned to service.
// It reports whether the device was present.
func (p *Pool) QuarantineDevice(id string) (found bool, err error) {
	err = p.call(id, func(s *shard) {
		var d *Device
		if d, found = s.devices[id]; found {
			d.quarantined = true
		}
	})
	return found, err
}

// Quarantined reports whether the device exists and is quarantined.
func (p *Pool) Quarantined(id string) (q bool, err error) {
	err = p.call(id, func(s *shard) {
		d, ok := s.devices[id]
		q = ok && d.quarantined
	})
	return q, err
}

// ResetDevice clears a device monitor's deviation state (core.Monitor.Reset)
// so detection re-arms: the recovery control plane calls it as part of every
// escalation action, and journal replay re-applies it at the recorded
// position. It reports whether the device was present.
func (p *Pool) ResetDevice(id string) (found bool, err error) {
	err = p.call(id, func(s *shard) {
		var d *Device
		if d, found = s.devices[id]; found && d.Monitor != nil {
			d.Monitor.Reset()
		}
	})
	return found, err
}

// Dispatch routes one event to one device, asynchronously. Unknown devices
// are counted in Stats().Dropped.
func (p *Pool) Dispatch(id string, e event.Event) error {
	return p.send(p.ShardOf(id), func(s *shard) { s.deliver(p, id, e) })
}

// DispatchAt is Dispatch for the ingestion path: it additionally records
// the ingest-to-dispatch latency — from the frame's decode instant to its
// delivery on the shard goroutine, the interval the fleet's latency SLO is
// stated over — into the shard's histogram. Recording is one atomic add;
// plain Dispatch callers pay nothing. Under a live ctx (a sampled frame) the
// shard also records a dispatch span (enqueue → shard-goroutine pickup, the
// queue-wait the shed tiers manage) and a monitor span (the device step
// itself), and the latency observation carries the trace ID as its bucket's
// exemplar — the link that lets a p99 spike on /metrics resolve to the span
// chain that produced it. A dead ctx — the zero Context, or any on a pool
// without a tracer — costs nothing extra, so only the 1-in-N sampled frames
// pay for the clock reads.
func (p *Pool) DispatchAt(id string, e event.Event, ingest time.Time, ctx trace.Context) error {
	tr := p.opts.Tracer
	if !ctx.Live() || tr == nil {
		return p.send(p.ShardOf(id), func(s *shard) {
			s.deliver(p, id, e)
			s.lat.Record(time.Since(ingest))
		})
	}
	enq := time.Now()
	return p.send(p.ShardOf(id), func(s *shard) {
		pick := time.Now()
		dctx := tr.Span(ctx, trace.KindDispatch, s.idx, id, enq, pick.Sub(enq), false)
		s.deliver(p, id, e)
		tr.Span(dctx, trace.KindMonitor, s.idx, id, pick, time.Since(pick), false)
		s.lat.RecordEx(time.Since(ingest), ctx.Trace)
	})
}

// Pressure reports the fill fraction, in [0,1], of the command queue of
// the shard the device ID routes to. The ingestion server reads it on the
// hot path to decide load-shedding, so it is a channel-length probe, not a
// barrier: momentarily stale, never blocking.
func (p *Pool) Pressure(id string) float64 {
	s := p.shards[p.ShardOf(id)]
	return float64(len(s.cmds)) / float64(cap(s.cmds))
}

// AddShed adds a shed-marker record's counts to the shard counters of the
// device the frames were shed for. The ingestion server calls it when a
// marker becomes durable (or immediately, on journal-less servers), and
// journal replay re-applies markers through it — so a replayed pool's
// rollup balances against the live one's even though shed frames
// themselves were never journaled.
func (p *Pool) AddShed(id string, rec wire.ShedRecord) {
	s := p.shards[p.ShardOf(id)]
	s.shedObs.Add(rec.Observations)
	s.shedHB.Add(rec.Heartbeats)
}

// Latency returns the fleet-wide ingest-to-dispatch latency snapshot:
// every shard's histogram merged.
func (p *Pool) Latency() metrics.Snapshot {
	var out metrics.Snapshot
	for _, s := range p.shards {
		out.Merge(s.lat.Snapshot())
	}
	return out
}

// ShardLatency returns one shard's ingest-to-dispatch latency snapshot.
// Per-shard views are the point of the SLO plane: a flooded shard's tail
// must be visible apart from its healthy neighbours.
func (p *Pool) ShardLatency(i int) metrics.Snapshot {
	return p.shards[i].lat.Snapshot()
}

// Broadcast delivers the event to every non-quarantined device: one command
// per shard.
func (p *Pool) Broadcast(e event.Event) error {
	return p.sendAll(func(s *shard) {
		var n, q uint64
		for _, d := range s.devices {
			if d.quarantined {
				q++
				continue
			}
			d.Feed(e)
			n++
		}
		s.dispatched.Add(n)
		s.quarantined.Add(q)
	})
}

func (s *shard) deliver(p *Pool, id string, e event.Event) {
	d, ok := s.devices[id]
	if !ok {
		s.dropped.Add(1)
		return
	}
	s.feed(d, e)
}

// feed delivers one event to a device the shard holds.
func (s *shard) feed(d *Device, e event.Event) {
	if d.quarantined {
		s.quarantined.Add(1)
		return
	}
	d.Feed(e)
	s.dispatched.Add(1)
}

// Advance runs every device's virtual clock forward by d, in parallel
// across shards, and returns when all shards are done. This is where
// periodic monitor work (silence sweeps, time-based comparison) happens.
func (p *Pool) Advance(d sim.Time) error {
	return p.barrier(func(s *shard) {
		for _, dev := range s.devices {
			dev.Kernel.Run(dev.Kernel.Now() + d)
		}
	})
}

// report fans one device's error report into the pool handlers. The count
// lives on the device's shard so checkpoints can snapshot it per stream.
func (p *Pool) report(s *shard, device string, r wire.ErrorReport) {
	s.reports.Add(1)
	p.mu.Lock()
	hs := p.handlers
	p.mu.Unlock()
	for _, h := range hs {
		h(device, r)
	}
}

// OnReport registers a fleet-level handler receiving every device's error
// reports tagged with the device ID. Handlers run on shard goroutines and
// may be invoked concurrently; they must be safe for that, and they must
// not call the pool's barrier methods (Sync, Advance, Rollup, Stats,
// DeviceStats) — a barrier waits for the very shard the handler is
// blocking, deadlocking the pool. Record what you need and act after the
// dispatch round.
func (p *Pool) OnReport(fn func(device string, r wire.ErrorReport)) {
	p.mu.Lock()
	p.handlers = append(p.handlers[:len(p.handlers):len(p.handlers)], fn)
	p.mu.Unlock()
}

// Stop drains the shards, stops every device monitor and closes every
// device. The pool cannot be restarted. The final monitor counters stay
// readable through Stats/Rollup, like a stopped core.Monitor's. Stop
// returns once shutdown is complete, from every caller.
func (p *Pool) Stop() {
	p.opMu.Lock()
	if p.stopped {
		p.opMu.Unlock()
		<-p.term // a concurrent Stop won the race; wait for it to finish
		return
	}
	p.stopped = true
	for _, s := range p.shards {
		close(s.cmds)
	}
	p.opMu.Unlock()
	p.wg.Wait()
	close(p.term)
}

// Rollup gathers the fleet-level statistics. It is a barrier: commands
// submitted before it are reflected in the result. On a stopped pool it
// returns the counters frozen at shutdown.
func (p *Pool) Rollup() Stats {
	st := Stats{Shards: p.opts.Shards}
	var mu sync.Mutex
	err := p.barrier(func(s *shard) {
		var part core.MonitorStats
		n := 0
		for _, d := range s.devices {
			if d.Monitor != nil {
				part.Add(d.Monitor.Stats())
			}
			n++
		}
		mu.Lock()
		st.Monitor.Add(part)
		st.Devices += n
		mu.Unlock()
	})
	if err != nil {
		<-p.term // shutdown complete: the shards' final sums are published
		for _, s := range p.shards {
			st.Monitor.Add(s.final)
		}
		st.Devices = int(p.devices.Load())
	}
	sum := p.restored()
	for _, s := range p.shards {
		sum.add(s.traffic())
	}
	st.Dispatched, st.Dropped, st.Quarantined = sum.Dispatched, sum.Dropped, sum.Quarantined
	st.Reports, st.ShedObservations, st.ShedHeartbeats = sum.Reports, sum.ShedObservations, sum.ShedHeartbeats
	return st
}

// HealthyDevices snapshots the IDs of every non-quarantined device, sorted.
// It is a barrier like Rollup, so it must not be called from shard
// goroutines (pool report handlers). The diagnosis plane samples its
// comparison cohorts from this list.
func (p *Pool) HealthyDevices() []string {
	var mu sync.Mutex
	var out []string
	_ = p.barrier(func(s *shard) {
		part := make([]string, 0, len(s.devices))
		for id, d := range s.devices {
			if !d.quarantined {
				part = append(part, id)
			}
		}
		mu.Lock()
		out = append(out, part...)
		mu.Unlock()
	})
	sort.Strings(out)
	return out
}

// DeviceStats snapshots per-device monitor counters keyed by device ID.
func (p *Pool) DeviceStats() map[string]core.MonitorStats {
	out := make(map[string]core.MonitorStats)
	var mu sync.Mutex
	_ = p.barrier(func(s *shard) {
		part := make(map[string]core.MonitorStats, len(s.devices))
		for id, d := range s.devices {
			if d.Monitor != nil {
				part[id] = d.Monitor.Stats()
			}
		}
		mu.Lock()
		for id, st := range part {
			out[id] = st
		}
		mu.Unlock()
	})
	return out
}
