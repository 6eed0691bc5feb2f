package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"trader/internal/control"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/metrics"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/trace"
	"trader/internal/wire"
)

// This file is the traced pass. It rebuilds the daemon's frame path in this
// process from each layer's public functions — wire decode, journal append,
// pool dispatch, monitor step — runs the workload's first traceFrames frames
// through it in 256-frame batches, and records a span around each layer's
// share of a batch. Spans per batch, not per frame, keep the clock reads
// far below the work they time. A layer's self time is its span minus its
// children; the layers' sum is held against daemon_cpu_us_per_frame of the
// end-to-end run that preceded it, and the difference is the residue the
// daemon spends outside these functions: syscalls, scheduler, channels,
// locks.

const (
	traceFrames  = 200000
	poolDevices  = 1024  // devices registered in the pool the pass dispatches into
	heapDevices  = 10000 // devices added for add_device_us and heap_bytes_per_device
	smallJournal = 2000  // devices in the journal the wire_* workloads replay
	allocBatches = 64    // batches the allocation counts are taken over
)

// span is one timed interval: a layer's share of one batch.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index of the enclosing span, -1 for a root
	batch      int
}

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, which is the untraced pass trace.overhead_share compares
// against.
type recorder struct {
	origin time.Time
	spans  []span
}

func (r *recorder) begin(name string, parent, batch int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, batch: batch, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].end = time.Since(r.origin)
	}
}

// selfTimes sums, per span name, duration minus the children's durations.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): complete events, one track per nesting depth.
func (r *recorder) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]ev, len(r.spans))
	for i, s := range r.spans {
		events[i] = ev{Name: s.name, Cat: "layer", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"batch": s.batch, "span": i, "parent": s.parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countingReader counts Read calls: wire.reads_per_frame is how many reads
// the decoder issues per frame, each of which is a syscall on a socket.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// measured is one measure() result, per operation.
type measured struct{ ns, allocs, bytes float64 }

// measure runs fn once over n operations and reports time, allocations and
// allocated bytes per operation.
func measure(n int, fn func()) measured {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&b)
	f := float64(n)
	return measured{float64(d) / f, float64(b.Mallocs-a.Mallocs) / f, float64(b.TotalAlloc-a.TotalAlloc) / f}
}

func discard(wire.Message) error { return nil }

// rig is the in-process frame path: what the server does with one
// connection's frames, layer by layer.
type rig struct {
	id   string
	pool *fleet.Pool
	jw   *journal.Sharded // nil on journal-off workloads
	dev  *fleet.Device    // a monitor built apart from the pool, stepped on this goroutine
	dec  *wire.Decoder
	rd   *countingReader
	msgs []wire.Message
}

func newRig(stream []byte, id string, cfg config, w workload, dir string) (*rig, error) {
	g := &rig{id: id, pool: fleet.NewPool(fleet.Options{Shards: cfg.shards})}
	factory := fleet.LightMonitorFactory()
	if err := g.pool.AddRemoteDevice(id, factory, discard); err != nil {
		return nil, err
	}
	for i := 1; i < poolDevices; i++ {
		if err := g.pool.AddRemoteDevice(fmt.Sprintf("%s-peer-%04d", id, i), factory, discard); err != nil {
			return nil, err
		}
	}
	k, mon, err := factory(id, fleet.SeedOf(id))
	if err != nil {
		return nil, err
	}
	g.dev = fleet.RemoteDevice(id, k, mon, discard)
	if w.journal {
		if g.jw, err = journal.CreateSharded(dir, cfg.shards, journal.Options{NoSync: true}); err != nil {
			return nil, err
		}
	}
	g.rd = &countingReader{r: bytes.NewReader(stream)}
	g.dec = wire.NewDecoder(g.rd)
	g.dec.SetCodec(wire.Binary)
	return g, nil
}

func (g *rig) close() {
	g.pool.Stop()
	if g.jw != nil {
		_ = g.jw.Close()
	}
}

// decodeBatch decodes one window: windowFrames observations and the
// heartbeat that closes it. It returns io.EOF when the stream is spent.
func (g *rig) decodeBatch() error {
	g.msgs = g.msgs[:0]
	for len(g.msgs) <= windowFrames {
		m, err := g.dec.Decode()
		if err != nil {
			return err
		}
		g.msgs = append(g.msgs, m)
	}
	return nil
}

// The stages below each do one layer's work for the batch in g.msgs, the
// way Server.handle does it per frame.

func (g *rig) appendBatch() error {
	for _, m := range g.msgs {
		jm := wire.Message{Type: m.Type, SUO: g.id, Event: m.Event, At: m.At}
		if err := g.jw.AppendThen(jm, false, nil); err != nil {
			return err
		}
	}
	return nil
}

func (g *rig) dispatchBatch() error {
	for _, m := range g.msgs[:windowFrames] {
		if err := g.pool.Dispatch(g.id, *m.Event); err != nil {
			return err
		}
	}
	return nil
}

// drainBatch is the heartbeat's flush barrier: the wait for the shard
// goroutine to step the pool's copy of the device through the batch.
func (g *rig) drainBatch() error {
	hb := g.msgs[windowFrames]
	if err := g.pool.AdvanceDevice(g.id, hb.At); err != nil {
		return err
	}
	return g.pool.FlushDevice(g.id)
}

func (g *rig) stepBatch() {
	for _, m := range g.msgs[:windowFrames] {
		g.dev.Feed(*m.Event)
	}
}

// run pushes the whole stream through the path batch by batch, recording
// spans when rec is non-nil, and returns the batches done.
func (g *rig) run(rec *recorder) (int, error) {
	for b := 0; ; b++ {
		root := rec.begin("batch", -1, b)
		s := rec.begin("wire.decode", root, b)
		err := g.decodeBatch()
		rec.end(s)
		if err == io.EOF {
			if rec != nil {
				rec.spans = rec.spans[:root] // the empty batch that found the end
			}
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if g.jw != nil {
			s = rec.begin("journal.append", root, b)
			err = g.appendBatch()
			rec.end(s)
			if err != nil {
				return b, err
			}
		}
		s = rec.begin("fleet.pool.dispatch", root, b)
		err = g.dispatchBatch()
		rec.end(s)
		if err != nil {
			return b, err
		}
		s = rec.begin("fleet.pool.drain", root, b)
		err = g.drainBatch()
		rec.end(s)
		if err != nil {
			return b, err
		}
		s = rec.begin("core.step", root, b)
		g.stepBatch()
		rec.end(s)
		rec.end(root)
	}
}

// encodeStream is the workload's first n frames as the wire carries them:
// windows of windowFrames observations closed by a heartbeat.
func encodeStream(m *mix, n int) []byte {
	var buf []byte
	for sent := 0; sent < n; sent += windowFrames {
		buf, _ = m.appendObs(buf, windowFrames, nil)
		buf = appendFrame(buf, m.heartbeat())
	}
	return buf
}

// tracedPass measures the per-layer metrics of kind A and adds them, the
// layer sum and the residue to res.
func tracedPass(cfg config, w workload, journalDir string, res *result) error {
	l := res.layer
	m := mixesFor(cfg, w)[0]
	id := m.id
	stream := encodeStream(m, traceFrames)
	batches := (traceFrames + windowFrames - 1) / windowFrames
	frames := float64(batches * windowFrames)
	l["wire.frame_bytes"] = float64(len(stream)) / float64(batches*(windowFrames+1))

	// Allocation counts, one stage at a time over the first batches.
	if err := allocPass(stream, id, cfg, w, l); err != nil {
		return err
	}

	// The same path untraced and traced: the difference is what the spans
	// themselves cost.
	pass := func(rec *recorder, dir string) (time.Duration, *rig, error) {
		g, err := newRig(stream, id, cfg, w, dir)
		if err != nil {
			return 0, nil, err
		}
		defer g.close()
		runtime.GC()
		t := time.Now()
		if rec != nil {
			rec.origin = t
		}
		n, err := g.run(rec)
		if err == nil && n != batches {
			err = fmt.Errorf("traced pass: decoded %d batches of %d", n, batches)
		}
		return time.Since(t), g, err
	}
	// Untraced before and after, so drift over the pass (heap growth, page
	// cache) is not booked as the spans' cost.
	plain, _, err := pass(nil, "trace-journal-0")
	if err != nil {
		return err
	}
	rec := &recorder{}
	traced, g, err := pass(rec, "trace-journal-1")
	if err != nil {
		return err
	}
	plain2, _, err := pass(nil, "trace-journal-2")
	if err != nil {
		return err
	}
	plain = (plain + plain2) / 2
	l["trace.overhead_share"] = (traced - plain).Seconds() / plain.Seconds()
	self := rec.selfTimes()
	perFrame := func(name string) float64 { return float64(self[name]) / frames }
	l["wire.decode_ns_per_frame"] = perFrame("wire.decode")
	l["wire.reads_per_frame"] = float64(g.rd.reads) / float64(batches*(windowFrames+1))
	l["journal.append_ns_per_record"] = perFrame("journal.append")
	l["fleet.pool.dispatch_ns_per_frame"] = perFrame("fleet.pool.dispatch")
	l["core.step_ns_per_event"] = perFrame("core.step")
	l["core.comparisons_per_event"] = float64(g.dev.Monitor.Stats().Comparisons) / frames

	// Journal read and replay: the workload's own journal on fleet_recover,
	// a small one of the same shape elsewhere.
	if journalDir == "" {
		journalDir = "trace-replay"
		if _, err := writeJournal(journalDir, cfg.seed, smallJournal, cfg.shards, 0); err != nil {
			return err
		}
	}
	if err := replayPass(rec, journalDir, cfg, l); err != nil {
		return err
	}
	if err := poolMicro(cfg, l); err != nil {
		return err
	}
	if err := planeMicro(l); err != nil {
		return err
	}

	out, kept := cfg.out, ""
	if out == "" {
		out, kept = ".", " (in the run's scratch directory; -out DIR keeps it)"
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, "trace-"+w.name+".json")
	if err := rec.writeChrome(path); err != nil {
		return err
	}
	if err := checkChrome(path, len(rec.spans)); err != nil {
		return err
	}

	// The layer sum, next to the end-to-end cost it is part of.
	daemon := res.e2e["daemon_cpu_us_per_frame"].v * 1e3
	sum := l["wire.decode_ns_per_frame"] + l["journal.append_ns_per_record"] +
		l["fleet.pool.dispatch_ns_per_frame"] + l["core.step_ns_per_event"]
	if w.journalBoot() {
		// A boot reads records instead of decoding frames and appending.
		sum = l["journal.read_ns_per_record"] + l["fleet.pool.dispatch_ns_per_frame"] + l["core.step_ns_per_event"]
	}
	l["fleet.server.residue_ns_per_frame"] = daemon - sum
	self = rec.selfTimes() // now with the replay spans
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\ntraced pass: %d spans in %s%s (%d frames; spans cost %.1f %% of the untraced pass)\n",
		len(rec.spans), path, kept, int(frames), l["trace.overhead_share"]*100)
	for _, name := range names {
		fmt.Printf("  self %-24s %10.3f ms\n", name, float64(self[name])/1e6)
	}
	fmt.Printf("  layer sum %.0f ns/frame of daemon_cpu_us_per_frame %.0f ns: residue %.0f ns (syscalls, scheduler, channels, locks)\n",
		sum, daemon, daemon-sum)
	if !w.paced && sum > daemon {
		return fmt.Errorf("traced pass: the layers sum to %.0f ns per frame, more than the daemon's %.0f ns end to end", sum, daemon)
	}
	return nil
}

// checkChrome reads the trace file back: it must be JSON a viewer loads,
// holding every span.
func checkChrome(path string, spans int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	if len(f.TraceEvents) != spans {
		return fmt.Errorf("trace file %s holds %d events for %d spans", path, len(f.TraceEvents), spans)
	}
	return nil
}

// allocPass runs each stage alone over the first allocBatches batches and
// records its allocations per frame, plus the encode cost of the same
// frames and the journal's bytes per record.
func allocPass(stream []byte, id string, cfg config, w workload, l map[string]float64) error {
	jw := w
	jw.journal = true // append allocations are measured on every workload
	g, err := newRig(stream, id, cfg, jw, "trace-journal-alloc")
	if err != nil {
		return err
	}
	defer g.close()
	n := allocBatches * windowFrames
	var all []wire.Message
	var derr error
	dec := measure(n, func() {
		for b := 0; b < allocBatches && derr == nil; b++ {
			derr = g.decodeBatch()
			all = append(all, g.msgs...)
		}
	})
	if derr != nil {
		return derr
	}
	l["wire.decode_allocs_per_frame"] = dec.allocs
	l["wire.decode_bytes_per_frame"] = dec.bytes
	buf := make([]byte, 0, 256)
	enc := measure(len(all), func() {
		for _, m := range all {
			buf = appendFrame(buf[:0], m)
		}
	})
	l["wire.encode_ns_per_frame"] = enc.ns
	g.msgs = all
	var aerr error
	app := measure(len(all), func() { aerr = g.appendBatch() })
	if aerr != nil {
		return aerr
	}
	l["journal.append_allocs_per_record"] = app.allocs
	if err := g.jw.Close(); err != nil {
		return err
	}
	var size int64
	_ = filepath.Walk("trace-journal-alloc", func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	g.jw = nil
	l["journal.bytes_per_record"] = float64(size) / float64(len(all))
	var obs []wire.Message
	for _, m := range all {
		if m.Event != nil {
			obs = append(obs, m)
		}
	}
	var perr error
	disp := measure(len(obs), func() {
		for _, m := range obs {
			if perr = g.pool.Dispatch(id, *m.Event); perr != nil {
				return
			}
		}
	})
	if perr != nil {
		return perr
	}
	l["fleet.pool.dispatch_allocs_per_frame"] = disp.allocs
	if err := g.pool.Sync(); err != nil {
		return err
	}
	step := measure(len(obs), func() {
		for _, m := range obs {
			g.dev.Feed(*m.Event)
		}
	})
	l["core.step_allocs_per_event"] = step.allocs
	return nil
}

// replayPass walks the journal twice: once with journal.OpenReader/Next
// alone, once through Pool.Replay, each under spans.
func replayPass(rec *recorder, dir string, cfg config, l map[string]float64) error {
	r, err := journal.OpenReader(dir)
	if err != nil {
		return err
	}
	records := 0
	var rerr error
	root := rec.begin("journal.read", -1, 0)
	read := measure(1, func() {
		for {
			if _, rerr = r.Next(); rerr != nil {
				return
			}
			records++
		}
	})
	rec.end(root)
	r.Close()
	if rerr != io.EOF {
		return rerr
	}
	l["journal.read_ns_per_record"] = read.ns / float64(records)
	l["journal.read_allocs_per_record"] = read.allocs / float64(records)

	if r, err = journal.OpenReader(dir); err != nil {
		return err
	}
	defer r.Close()
	pool := fleet.NewPool(fleet.Options{Shards: cfg.shards})
	defer pool.Stop()
	runtime.GC()
	root = rec.begin("fleet.pool.replay", -1, 0)
	t := time.Now()
	_, err = pool.Replay(r, fleet.LightMonitorFactory())
	d := time.Since(t)
	rec.end(root)
	if err != nil {
		return err
	}
	l["fleet.pool.replay_ns_per_record"] = float64(d) / float64(records)
	return nil
}

// poolMicro measures the pool on its own: device registration, heap per
// device, and the drain rate single-sharded next to sharded.
func poolMicro(cfg config, l map[string]float64) error {
	factory := fleet.LightMonitorFactory()
	pool := fleet.NewPool(fleet.Options{Shards: cfg.shards})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < heapDevices; i++ {
		if err := pool.AddRemoteDevice(fmt.Sprintf("heap-%05d", i), factory, discard); err != nil {
			pool.Stop()
			return err
		}
	}
	l["fleet.pool.add_device_us"] = float64(time.Since(t)) / 1e3 / heapDevices
	runtime.GC()
	runtime.ReadMemStats(&after)
	l["fleet.pool.heap_bytes_per_device"] = float64(after.HeapAlloc-before.HeapAlloc) / heapDevices
	pool.Stop()

	// One event list, generated once, drained through one shard and through
	// cfg.shards: the single-threaded baseline beside the sharded one.
	mixes := make([]*mix, poolDevices)
	for i := range mixes {
		mixes[i] = newMix(fmt.Sprintf("drain-%04d", i), subSeed(cfg.seed, 1000+i), 0)
	}
	type targeted struct {
		id string
		ev event.Event
	}
	events := make([]targeted, 0, traceFrames)
	for len(events) < traceFrames {
		for _, m := range mixes {
			msg, _ := m.next()
			ev := *msg.Event
			ev.Values = append([]event.Value(nil), ev.Values...)
			events = append(events, targeted{m.id, ev})
		}
	}
	for _, shards := range []int{1, cfg.shards} {
		p := fleet.NewPool(fleet.Options{Shards: shards})
		for _, m := range mixes {
			if err := p.AddRemoteDevice(m.id, factory, discard); err != nil {
				p.Stop()
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		for _, e := range events {
			if err = p.Dispatch(e.id, e.ev); err != nil {
				break
			}
		}
		if err == nil {
			err = p.Sync()
		}
		d := time.Since(t)
		p.Stop()
		if err != nil {
			return err
		}
		name := "fleet.pool.drain_events_per_s_shardsN"
		if shards == 1 {
			name = "fleet.pool.drain_events_per_s_shards1"
		}
		l[name] = float64(len(events)) / d.Seconds()
	}
	return nil
}

// planeMicro puts one number on each plane that sits on or beside the hot
// path: the latency histogram, the trace sampler, the controller's report
// intake, the diagnosis fold and the incremental ranking.
func planeMicro(l map[string]float64) error {
	const n = 1 << 20
	h := metrics.New()
	l["metrics.record_ns"] = measure(n, func() {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i&0xffff) * time.Microsecond)
		}
	}).ns

	tr := trace.New(trace.Options{Shards: 1, SampleN: trace.DefaultSampleN, Seed: 1})
	l["trace.sample_ns"] = measure(n, func() {
		for i := 0; i < n; i++ {
			tr.Sample()
		}
	}).ns
	ctx, now := tr.Force(), time.Now()
	l["trace.span_ns"] = measure(n, func() {
		for i := 0; i < n; i++ {
			tr.Span(ctx, trace.KindIngest, 0, "dev", now, time.Microsecond, false)
		}
	}).ns

	// The controller takes reports through an inbox that sheds when full,
	// so they are fed in chunks it can hold, each closed by Sync.
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("ctl-%03d", i)
		if err := pool.AddRemoteDevice(ids[i], fleet.LightMonitorFactory(), discard); err != nil {
			return err
		}
	}
	ctl := control.Attach(pool, control.Options{Policy: control.DefaultPolicy()})
	defer ctl.Close()
	const reports, chunk = 1 << 14, 1024
	l["control.report_ns"] = measure(reports, func() {
		for i := 0; i < reports; i++ {
			// Reports six virtual seconds apart per device stay on the
			// ladder's first rung, as the workloads' bursts do.
			at := sim.Time(6*(1+i/len(ids))) * sim.Second
			ctl.Report(ids[i%len(ids)], wire.ErrorReport{Detector: "comparator", Observable: "x", Expected: 1, Actual: 2, Consecutive: 2, At: at})
			if i%chunk == chunk-1 {
				ctl.Sync()
			}
		}
		ctl.Sync()
	}).ns

	// The continuous-diagnosis fold at ten times the paper's program size:
	// 600 000 blocks, a 64-word sparse delta per heartbeat.
	const blocks = 600000
	idx := make([]uint32, 64)
	words := make([]uint64, 64)
	for i := range idx {
		idx[i] = uint32(i)*uint32(blocks/64/64) + 1
		words[i] = 0x0101010101010101 << uint(i%8)
	}
	failIdx := append([]uint32{0}, idx...)
	failWords := append([]uint64{0xffff}, words...)
	s := spectrum.NewSpectra(blocks, 0)
	s.TrackTop(10)
	const folds = 2000
	var foldTime, topTime time.Duration
	for i := 0; i < folds; i++ {
		t := time.Now()
		if i%9 == 0 {
			s.FoldSparse(failIdx, failWords, true)
		} else {
			s.FoldSparse(idx, words, false)
		}
		mid := time.Now()
		top := s.Top(spectrum.Ochiai)
		topTime += time.Since(mid)
		foldTime += mid.Sub(t)
		if i > 64 && len(top) != 10 {
			return fmt.Errorf("incremental ranking returned %d of 10 suspects", len(top))
		}
	}
	l["diagnose.delta_fold_us"] = float64(foldTime) / 1e3 / folds
	l["spectrum.top_incremental_us"] = float64(topTime) / 1e3 / folds

	// fsync latency of this host's disk: informational, device-bound.
	jw, err := journal.Create("trace-fsync", journal.Options{})
	if err != nil {
		return err
	}
	defer jw.Close()
	var syncs []float64
	for i := 0; i < 30; i++ {
		t := time.Now()
		if err := jw.Append(wire.Message{Type: wire.TypeHeartbeat, SUO: "fsync", At: sim.Time(i) * sim.Second}); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(t))/1e6)
	}
	l["journal.fsync_ms_p50"] = medianOf(syncs).v
	return nil
}
