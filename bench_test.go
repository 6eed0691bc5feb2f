package trader_test

// One benchmark per experiment of DESIGN.md §4. Each regenerates the
// corresponding figure/claim of the paper; `go test -bench=. -benchmem`
// therefore reproduces the full evaluation. The per-iteration wall time is
// the cost of simulating the whole experiment (tens of virtual seconds of
// TV operation per iteration for the system-level ones).

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trader/internal/control"
	"trader/internal/core"
	"trader/internal/diagnose"
	"trader/internal/event"
	"trader/internal/exper"
	"trader/internal/federate"
	"trader/internal/fleet"
	"trader/internal/journal"
	"trader/internal/sim"
	"trader/internal/spectrum"
	"trader/internal/statemachine"
	"trader/internal/trace"
	"trader/internal/tvsim"
	"trader/internal/wire"
)

func benchTable(b *testing.B, run func() (*exper.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ClosedLoop(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E1ClosedLoop(1) })
}

// BenchmarkE2FrameworkOverhead measures the monitor's hot path directly:
// one observation through the Output Observer and Comparator.
func BenchmarkE2FrameworkOverhead(b *testing.B) {
	k := sim.NewKernel(1)
	r := statemachine.NewRegion("r")
	r.Add(&statemachine.State{Name: "s", Entry: func(c *statemachine.Context) { c.Set("x", 0) }})
	model := statemachine.MustModel("bench", k, r)
	mon, err := core.NewMonitor(k, model, core.Configuration{Observables: []core.Observable{
		{EventName: "out", ValueName: "x", ModelVar: "x", Threshold: 0.5, Tolerance: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		b.Fatal(err)
	}
	e := event.Event{Kind: event.Output, Name: "out"}.With("x", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.HandleOutput(e)
	}
}

func BenchmarkE2SocketPath(b *testing.B) {
	// Cross-process framing cost: one event encoded + decoded + compared.
	n := b.N
	b.ResetTimer()
	if _, err := exper.E2SocketThroughput(n); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE3ComparatorTradeoff(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E3ComparatorTradeoff(1) })
}

func BenchmarkE4SpectrumDiagnosis(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E4Diagnosis(42) })
}

// BenchmarkE4RankOnly isolates the ranking computation on the paper-sized
// matrix (60 000 blocks × 27 transactions).
func BenchmarkE4RankOnly(b *testing.B) {
	p := spectrum.GenerateTVProgram(42, 60000)
	fault := p.FaultInFeature("teletext")
	m := p.RunScenario(spectrum.PaperScenario(), fault)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rank(spectrum.Ochiai)
	}
}

func BenchmarkE5ModeConsistency(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E5ModeConsistency(1) })
}

func BenchmarkE6PartialRecovery(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E6Recovery(1) })
}

func BenchmarkE7Migration(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E7Migration(3) })
}

func BenchmarkE8Perception(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E8Perception(42) })
}

func BenchmarkE9StressTest(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E9Stress(9) })
}

func BenchmarkE10WarningPriority(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E10WarningPriority(1) })
}

func BenchmarkE11ModelExploration(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E11ModelQuality(1) })
}

func BenchmarkE12MediaPlayer(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E12MediaPlayer(2) })
}

func BenchmarkE13FMEA(b *testing.B) {
	benchTable(b, func() (*exper.Table, error) { return exper.E13FMEA(1) })
}

// wireBenchMessage is the representative ingestion frame: one observation
// with a realistic value payload, as streamed by every fleet device.
func wireBenchMessage() wire.Message {
	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123 * sim.Millisecond, Seq: 42}
	ev = ev.With("quality", 0.87).With("fps", 50).With("luma", 112)
	return wire.Message{Type: wire.TypeOutput, SUO: "tvsim-000123", Event: &ev, At: 123 * sim.Millisecond}
}

// benchWireCodec measures the frame hot path per codec: encode writes one
// frame into a reused buffer; decode reads it back (the decoder reuses its
// payload buffer, so steady-state decode cost is pure codec cost). The
// acceptance bar from ISSUE 2: binary decode ≥ 3× faster than JSON with
// fewer allocations per frame.
func benchWireCodec(b *testing.B, codec wire.Codec) {
	benchWireMessage(b, codec, wireBenchMessage())
}

func BenchmarkWireJSON(b *testing.B)   { benchWireCodec(b, wire.JSON) }
func BenchmarkWireBinary(b *testing.B) { benchWireCodec(b, wire.Binary) }

// snapshotBenchMessage is a representative diagnosis-evidence frame: a
// paper-scale (60 000-block) coverage snapshot with four half-populated
// windows — the payload a device serves on a diagnosis pull and the
// journal's evidence record.
func snapshotBenchMessage() wire.Message {
	rec := tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: spectrum.DefaultBlocks, Windows: 4, Seed: 7})
	for w := 0; w < 4; w++ {
		for _, f := range []string{"teletext", "volume", "zapping", "menu"} {
			rec.Press(f)
		}
		rec.Rotate(sim.Time(w+1) * sim.Second)
	}
	return wire.Message{Type: wire.TypeSnapshot, SUO: "tvsim-000123", Target: "fail",
		At: 4 * sim.Second, Snapshot: rec.Snapshot()}
}

// BenchmarkSnapshotJSON/BenchmarkSnapshotBinary measure the snapshot frame
// on the same encode/decode harness as the observation frames: the
// diagnosis pull path moves ~60 KiB coverage payloads, so its codec cost is
// a tracked number next to the per-observation costs.
func BenchmarkSnapshotJSON(b *testing.B)   { benchWireMessage(b, wire.JSON, snapshotBenchMessage()) }
func BenchmarkSnapshotBinary(b *testing.B) { benchWireMessage(b, wire.Binary, snapshotBenchMessage()) }

// BenchmarkFleetDiagnosis measures the fleet-level diagnosis engine room at
// paper scale (60 000 blocks): "fold" is one labeled 4-window snapshot
// accumulated into the sharded spectrum (the per-evidence cost of a pull),
// "rank" is the parallel top-10 suspiciousness ranking over the folded
// counters (the per-rollup cost).
func BenchmarkFleetDiagnosis(b *testing.B) {
	msg := snapshotBenchMessage()
	windows := msg.Snapshot.Windows
	b.Run("fold", func(b *testing.B) {
		s := spectrum.NewSpectra(spectrum.DefaultBlocks, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				s.FoldWords(w.Words, i%9 == 0)
			}
		}
	})
	b.Run("rank", func(b *testing.B) {
		s := spectrum.NewSpectra(spectrum.DefaultBlocks, 0)
		for i := 0; i < 64; i++ {
			for _, w := range windows {
				s.FoldWords(w.Words, i%9 == 0)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := s.TopN(spectrum.Ochiai, 10); len(got) != 10 {
				b.Fatal("short ranking")
			}
		}
	})
}

// BenchmarkIncrementalRank measures the continuous-mode rank update (ISSUE
// 9): one op is one sparse heartbeat delta folded into a populated spectrum
// followed by a top-10 ranking read. mode=incremental folds with top-K
// tracking on and reads through Spectra.Top — the candidate set absorbs the
// touched blocks, so the read is O(k) against the guard instead of a scan —
// while mode=full re-ranks the whole counter matrix with TopN every time.
// The acceptance bar is incremental ≥ 50× faster than full at the paper's
// 60 000-block scale; the 600 000-block rows show the gap widening with
// program size, since the incremental cost tracks touched blocks, not
// blocks.
func BenchmarkIncrementalRank(b *testing.B) {
	for _, blocks := range []int{60000, 600000} {
		// The pass-window shape every delta ships: 64 populated words spread
		// across the program (~4 000 touched blocks of shared code). Fail
		// windows add a small fault neighborhood — 16 blocks executed only
		// when the defect fires — which is what keeps the true top-10
		// separable from the shared-code tie sea, as a real fault is.
		shared := make([]uint64, 64)
		sharedIdx := make([]uint32, 64)
		stride := uint32(blocks/64) / 64
		for i := range shared {
			sharedIdx[i] = uint32(i)*stride + 1
			shared[i] = 0x0101010101010101 << uint(i%8)
		}
		failIdx := append([]uint32{0}, sharedIdx...)
		failWords := append([]uint64{0xffff}, shared...)
		fold := func(s *spectrum.Spectra, i int) {
			if i%9 == 0 {
				s.FoldSparse(failIdx, failWords, true)
			} else {
				s.FoldSparse(sharedIdx, shared, false)
			}
		}
		seed := func(s *spectrum.Spectra) {
			for i := 0; i < 64; i++ {
				fold(s, i)
			}
		}
		b.Run(fmt.Sprintf("blocks=%d/mode=incremental", blocks), func(b *testing.B) {
			s := spectrum.NewSpectra(blocks, 0)
			s.TrackTop(10)
			seed(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fold(s, i)
				if got := s.Top(spectrum.Ochiai); len(got) != 10 {
					b.Fatal("short ranking")
				}
			}
		})
		b.Run(fmt.Sprintf("blocks=%d/mode=full", blocks), func(b *testing.B) {
			s := spectrum.NewSpectra(blocks, 0)
			seed(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fold(s, i)
				if got := s.TopN(spectrum.Ochiai, 10); len(got) != 10 {
					b.Fatal("short ranking")
				}
			}
		})
	}
}

// benchWireMessage is benchWireCodec for an arbitrary message shape.
func benchWireMessage(b *testing.B, codec wire.Codec, msg wire.Message) {
	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		enc.SetCodec(codec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		enc.SetCodec(codec)
		if err := enc.Encode(msg); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		r := bytes.NewReader(raw)
		dec := wire.NewDecoder(r)
		dec.SetCodec(codec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalAppend measures the journal hot path in isolation: one
// representative observation frame encoded (binary wire codec), CRC-framed
// and appended. "sync" is the durable configuration the ingestion daemon
// runs — group-commit fsync, so the syncs/op metric shows how many appends
// each fsync batch absorbed under the parallel load; "nosync" isolates the
// encode+CRC+buffered-write cost with durability off.
func BenchmarkJournalAppend(b *testing.B) {
	msg := wireBenchMessage()
	for _, mode := range []struct {
		name   string
		noSync bool
	}{{"sync", false}, {"nosync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := journal.Create(b.TempDir(), journal.Options{NoSync: mode.noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			// Group commit only batches when appends overlap; 8 goroutines
			// per proc keeps appenders piling up behind the fsync leader
			// even on a single-core host (the fsync syscall yields the P).
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := w.Append(msg); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if st := w.Stats(); st.Appends > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "syncs/op")
			}
		})
	}
}

// BenchmarkFleetIngestion measures the full networked ingestion path of
// ISSUE 2: concurrent SUO connections over a real Unix socket, each frame
// handshaken, framed, decoded and dispatched through the FNV shard routing
// into a per-device monitor. One op is one observation frame end-to-end;
// the heartbeat flush barrier at the end guarantees every frame has been
// through its monitor before the clock stops. The journal=on variants add
// ISSUE 3's durable write-ahead journal to the same path, so the cost of
// group-commit fsync batching is a tracked number next to the journal-off
// baseline; the ctl=on variant additionally attaches ISSUE 4's recovery
// controller (healthy traffic: its per-frame cost is the report fan-in
// registration only, and the acceptance bar is staying within 10% of the
// journal-on baseline); the diag=on variant additionally attaches ISSUE 5's
// diagnosis engine (same 10% bar against ctl=on: with no escalations the
// engine never pulls, so healthy-path ingestion must not notice it). The
// journal=sharded variants run ISSUE 6's per-shard segment streams — one
// group-commit fsync pipeline per pool shard instead of one for the whole
// fleet (acceptance bar: within ~3x of journal=off, against ~13x for the
// flat journal on a many-core host) — and durability=dispatch additionally
// has every connection negotiate the relaxed ack-on-dispatch tier, taking
// the fsync wait off the ack path entirely.
func BenchmarkFleetIngestion(b *testing.B) {
	const (
		conns = 32
		// flowWindow is the credit window the flow=on variant grants. In
		// steady state the daemon's mid-stream replenishment (sent at half
		// window while pressure is low) keeps a compliant client streaming
		// without ever blocking, so the acceptance bar is flow=on within 5%
		// of the journal-off baseline's frames/s.
		flowWindow = 1024
	)
	// The diag=continuous variant streams the continuous-diagnosis plane on
	// top: every contDeltaEvery'th observation is preceded by a sparse
	// 600 000-block spectrum delta (the heartbeat piggyback at the bench's
	// compressed cadence), which the engine folds incrementally as it
	// arrives. The acceptance bar is frames/s within 10% of the diag-off
	// ctl=on baseline — continuous ingestion must cost the observation path
	// nearly nothing even at 10× the paper's program scale.
	const (
		contBlocks     = 600000
		contDeltaEvery = 50
	)
	contIndex := make([]uint32, 64)
	contWords := make([]uint64, 64)
	for i := range contWords {
		contIndex[i] = uint32(i) * uint32(contBlocks/64/64)
		contWords[i] = 0x0101010101010101 << uint(i%8)
	}
	for _, cfg := range []struct {
		codec      string
		journal    bool
		sharded    bool
		relaxed    bool
		controller bool
		diagnosis  bool
		continuous bool
		flow       bool
		trace      bool
	}{
		{codec: wire.CodecJSON},
		{codec: wire.CodecBinary},
		// trace=on is the tracing plane at its default 1-in-128 sampling;
		// the acceptance bar is frames/s within 5% of the trace=off binary
		// baseline — the unsampled path must stay the pre-tracing path.
		{codec: wire.CodecBinary, trace: true},
		{codec: wire.CodecBinary, flow: true},
		{codec: wire.CodecJSON, journal: true},
		{codec: wire.CodecBinary, journal: true},
		{codec: wire.CodecBinary, journal: true, sharded: true},
		{codec: wire.CodecBinary, journal: true, sharded: true, relaxed: true},
		{codec: wire.CodecBinary, journal: true, controller: true},
		{codec: wire.CodecBinary, journal: true, controller: true, diagnosis: true},
		{codec: wire.CodecBinary, journal: true, controller: true, diagnosis: true, continuous: true},
	} {
		codec := cfg.codec
		name := fmt.Sprintf("codec=%s/journal=off", codec)
		if cfg.journal {
			name = fmt.Sprintf("codec=%s/journal=on", codec)
		}
		if cfg.sharded {
			name = fmt.Sprintf("codec=%s/journal=sharded", codec)
		}
		if cfg.relaxed {
			name += "/durability=dispatch"
		}
		if cfg.controller {
			name += "/ctl=on"
		}
		if cfg.diagnosis {
			if cfg.continuous {
				name += "/diag=continuous"
			} else {
				name += "/diag=on"
			}
		}
		if cfg.flow {
			name += "/flow=on"
		}
		if cfg.trace {
			name += "/trace=on"
		}
		b.Run(name, func(b *testing.B) {
			popts := fleet.Options{}
			if cfg.trace {
				popts.Tracer = trace.New(trace.Options{
					Shards: runtime.GOMAXPROCS(0), SampleN: trace.DefaultSampleN})
			}
			pool := fleet.NewPool(popts)
			defer pool.Stop()
			srv := &fleet.Server{Pool: pool, Factory: fleet.LightMonitorFactory(),
				Tracer: popts.Tracer}
			defer srv.Close()
			if cfg.flow {
				srv.CreditWindow = flowWindow
			}
			if cfg.journal {
				var jw fleet.TieredJournal
				if cfg.sharded {
					sj, err := journal.CreateSharded(b.TempDir(), pool.Shards(), journal.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer sj.Close()
					jw = sj
				} else {
					fj, err := journal.Create(b.TempDir(), journal.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer fj.Close()
					jw = fj
				}
				srv.Journal = jw
				var eng *diagnose.Engine
				if cfg.diagnosis {
					opts := diagnose.Options{Requester: srv, Journal: jw}
					if cfg.continuous {
						opts.Continuous = true
						opts.Blocks = contBlocks
					}
					eng = diagnose.Attach(pool, opts)
					defer eng.Close()
					srv.OnSnapshot = eng.HandleSnapshot
					if cfg.continuous {
						srv.OnSpectrumDelta = eng.HandleSpectrumDelta
					}
				}
				if cfg.controller {
					opts := control.Options{Actuator: srv, Journal: jw, Policy: control.DefaultPolicy()}
					if eng != nil {
						opts.OnEscalate = eng.HandleAction
					}
					ctl := control.Attach(pool, opts)
					defer ctl.Close()
					srv.OnAck = ctl.HandleAck
				}
			}
			ln, err := wire.Listen("unix:" + filepath.Join(b.TempDir(), "bench.sock"))
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			go srv.Serve(ln)

			clients := make([]*wire.Conn, conns)
			echo := make([]*atomic.Int64, conns)
			credits := make([]*atomic.Int64, conns)
			addr := ln.Addr().String()
			for i := range clients {
				cr := &atomic.Int64{}
				credits[i] = cr
				hello := wire.Message{SUO: fmt.Sprintf("bench-%03d", i), Codec: codec}
				switch {
				case cfg.flow:
					hello.Durability = wire.DurFsync
				case cfg.relaxed:
					hello.Durability = wire.DurDispatch
				}
				wc, reply, err := wire.Dial("unix:"+addr, hello)
				cr.Store(int64(reply.Credits))
				if err != nil {
					b.Fatal(err)
				}
				defer wc.Close()
				clients[i] = wc
				last := &atomic.Int64{}
				echo[i] = last
				go func(wc *wire.Conn, last, cr *atomic.Int64) {
					for {
						msg, err := wc.Decode()
						if err != nil {
							return
						}
						switch msg.Type {
						case wire.TypeCredit:
							cr.Add(int64(msg.Credits))
						case wire.TypeHeartbeat:
							// The echo also replenishes the window; recording
							// just the newest At keeps this reader non-
							// blocking — a reader parked on a full signal
							// channel would stop draining grants, wedge the
							// window shut and trip the server's write timeout.
							cr.Add(int64(msg.Credits))
							if at := int64(msg.At); at > last.Load() {
								last.Store(at)
							}
						}
					}
				}(wc, last, cr)
			}

			per := b.N/conns + 1
			finalAt := sim.Time(per+1) * sim.Millisecond
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, wc := range clients {
				wg.Add(1)
				go func(i int, wc *wire.Conn) {
					defer wg.Done()
					id := fmt.Sprintf("bench-%03d", i)
					cr := credits[i]
					for j := 0; j < per; j++ {
						at := sim.Time(j+1) * sim.Millisecond
						if cfg.flow {
							// Compliant streaming: mid-stream grants normally
							// arrive before the window drains; if one is late,
							// solicit the echo grant and wait it out.
							for cr.Load() <= 0 {
								if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}); err != nil {
									b.Error(err)
									return
								}
								time.Sleep(time.Millisecond)
							}
							cr.Add(-1)
						}
						if cfg.continuous && j%contDeltaEvery == 0 {
							d := &wire.SpectrumDelta{Seq: uint64(j / contDeltaEvery),
								Blocks: contBlocks, Index: contIndex, Words: contWords}
							if err := wc.Encode(wire.Message{Type: wire.TypeSpectrumDelta,
								SUO: id, At: at, Delta: d}); err != nil {
								b.Error(err)
								return
							}
						}
						ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", 0)
						if err := wc.SendEvent(id, ev); err != nil {
							b.Error(err)
							return
						}
					}
					if err := wc.Encode(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: finalAt}); err != nil {
						b.Error(err)
						return
					}
					deadline := time.Now().Add(30 * time.Second)
					for echo[i].Load() < int64(finalAt) {
						if time.Now().After(deadline) {
							b.Error("heartbeat echo timeout")
							return
						}
						time.Sleep(100 * time.Microsecond)
					}
				}(i, wc)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(conns*per)/b.Elapsed().Seconds(), "frames/s")
			// The latency-SLO plane's numbers for this variant: ingest-to-
			// dispatch quantiles over every admitted frame of the run.
			if lat := pool.Latency(); lat.Count() > 0 {
				b.ReportMetric(lat.Quantile(0.5).Seconds()*1e3, "p50-ms")
				b.ReportMetric(lat.Quantile(0.99).Seconds()*1e3, "p99-ms")
				b.ReportMetric(lat.Quantile(0.999).Seconds()*1e3, "p999-ms")
			}
		})
	}
}

// BenchmarkE14Fleet drives 1 000 monitored devices through the sharded
// fleet pool at increasing shard counts. Each op is one broadcast round
// (1 000 events, one per device, each through its monitor's input observer,
// model executor and comparator); every 25th round also advances virtual
// time. The events/s metric should scale near-linearly with shards up to
// GOMAXPROCS — on a multi-core host 4 shards sustain ≥2x the 1-shard rate.
func BenchmarkE14Fleet(b *testing.B) {
	const devices = 1000
	shardSet := []int{1, 2, 4}
	if mp := runtime.GOMAXPROCS(0); mp > 4 {
		shardSet = append(shardSet, mp)
	}
	if testing.Short() {
		// -short keeps one representative configuration; the full shard
		// sweep (the scaling claim) runs in CI's smoke job.
		shardSet = shardSet[len(shardSet)-1:]
	}
	for _, shards := range shardSet {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pool := fleet.NewPool(fleet.Options{Shards: shards})
			defer pool.Stop()
			factory := fleet.LightFactory(97)
			for i := 0; i < devices; i++ {
				if err := pool.AddDevice(fleet.DeviceID(i), int64(i)+1, factory); err != nil {
					b.Fatal(err)
				}
			}
			e := event.Event{Kind: event.Input, Name: "set", Source: "headend"}.With("x", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.Broadcast(e); err != nil {
					b.Fatal(err)
				}
				if i%25 == 24 {
					if err := pool.Advance(10 * sim.Millisecond); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := pool.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(devices*b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkCheckpointReplay measures boot-time journal recovery with and
// without a checkpoint resume point (ISSUE 6). Both journals hold the same
// session — history frames, then a short post-checkpoint delta — but in
// mode=checkpoint the history is summarised by per-stream checkpoint
// batches, so Replay restores monitor state from the records and
// re-dispatches only the delta, while mode=full re-dispatches everything.
// One op is one cold boot: fresh pool, open, replay, settle.
//
// planes=all is the every-plane boot (ISSUE 12): the checkpointed session
// recorded with a recovery controller and a continuous diagnosis engine
// attached — their records in the checkpoint batch, labeled spectrum deltas
// in the delta — and booted the way traderd boots it, the pool, the engine
// and the controller recovering from ONE pass of the replay driver. Before
// the plane contract each plane walked the journal on its own; the gap to
// mode=checkpoint is now the planes' work, not two more scans.
func BenchmarkCheckpointReplay(b *testing.B) {
	const (
		devices = 64
		shards  = 4
		history = 50 // frames per device before the checkpoint
		delta   = 5  // frames per device after it
	)
	discard := func(wire.Message) error { return nil }
	diagOpts := diagnose.Options{Blocks: 512, Continuous: true}
	build := func(dir string, checkpoint, planes bool) {
		pool := fleet.NewPool(fleet.Options{Shards: shards})
		defer pool.Stop()
		jw, err := journal.CreateSharded(dir, shards, journal.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		cper := &fleet.Checkpointer{Pool: pool, Journal: jw, Profile: "light"}
		var eng *diagnose.Engine
		if planes {
			opts := diagOpts
			opts.Journal = jw
			eng = diagnose.Attach(pool, opts)
			defer eng.Close()
			ctl := control.Attach(pool, control.Options{Journal: jw, OnEscalate: eng.HandleAction})
			defer ctl.Close()
			cper.Planes = []func() wire.Message{eng.Checkpoint, ctl.Checkpoint}
		}
		ids := make([]string, devices)
		recorders := make([]*tvsim.Recorder, devices)
		for i := range ids {
			ids[i] = fmt.Sprintf("boot-%03d", i)
			recorders[i] = tvsim.NewRecorder(tvsim.RecorderOptions{Blocks: diagOpts.Blocks, Seed: int64(i + 1)})
			if err := pool.AddRemoteDevice(ids[i], fleet.LightMonitorFactory(), discard); err != nil {
				b.Fatal(err)
			}
		}
		// Journal and dispatch in lock-step, the way the ingestion server
		// does, so the checkpoint captures exactly the journaled prefix.
		phase := func(n int, fromMs int64) {
			for i, id := range ids {
				for j := 0; j < n; j++ {
					at := sim.Time(fromMs+int64(j)*10) * sim.Millisecond
					ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", 0)
					m := wire.Message{Type: wire.TypeOutput, SUO: id, At: at, Event: &ev}
					if err := jw.Append(m); err != nil {
						b.Fatal(err)
					}
					if err := pool.Dispatch(id, ev); err != nil {
						b.Fatal(err)
					}
				}
				hbAt := sim.Time(fromMs+int64(n)*10) * sim.Millisecond
				if eng != nil {
					// A compliant client's delta rides right before its heartbeat.
					recorders[i].Press("volume")
					eng.HandleSpectrumDelta(id, wire.Message{Type: wire.TypeSpectrumDelta, SUO: id, At: hbAt,
						Delta: recorders[i].RotateDelta(hbAt)})
				}
				if err := jw.Append(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: hbAt}); err != nil {
					b.Fatal(err)
				}
				if err := pool.AdvanceDevice(id, hbAt); err != nil {
					b.Fatal(err)
				}
			}
			if err := pool.Sync(); err != nil {
				b.Fatal(err)
			}
			if eng != nil {
				eng.Sync()
			}
		}
		phase(history, 10)
		if checkpoint {
			if err := cper.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		phase(delta, 10+int64(history)*10+10)
		if err := jw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name               string
		checkpoint, planes bool
	}{{"mode=full", false, false}, {"mode=checkpoint", true, false}, {"planes=all", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			build(dir, mode.checkpoint, mode.planes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool := fleet.NewPool(fleet.Options{Shards: shards})
				rp := pool.Replayer(fleet.LightMonitorFactory())
				boot, stop := []journal.Plane{rp}, pool.Stop
				if mode.planes {
					eng := diagnose.Attach(pool, diagOpts)
					ctl := control.New(pool, control.Options{OnEscalate: eng.HandleAction})
					boot = append(boot, eng, ctl)
					stop = func() { ctl.Close(); eng.Close(); pool.Stop() }
				}
				jr, err := journal.OpenReader(dir)
				if err != nil {
					b.Fatal(err)
				}
				err = journal.Replay(jr, boot...)
				jr.Close()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rp.Stats.Frames), "frames/boot")
				}
				stop()
			}
		})
	}

	// The boot the repo's benchmark scores as fleet_recover (BENCHMARK.json):
	// 20 000 devices × 5 rounds of 10 observations and a heartbeat, no
	// checkpoint, so every record re-dispatches and every device is built by
	// the replay. records/s is that workload's ingest_frames_per_s without
	// the process around it; B/device is the heap a recovered device keeps.
	b.Run("devices=20000/no-checkpoint", func(b *testing.B) {
		const (
			fleetDevices = 20000
			rounds       = 5
			roundObs     = 10
		)
		dir := b.TempDir()
		jw, err := journal.CreateSharded(dir, shards, journal.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		records := 0
		for r := 0; r < rounds; r++ {
			for d := 0; d < fleetDevices; d++ {
				id := fleet.DeviceID(d)
				at := sim.Time(r*(roundObs+1)) * sim.Millisecond
				for j := 0; j < roundObs; j++ {
					at += sim.Millisecond
					// A command, then the device echoing the commanded level.
					ev := event.Event{Kind: event.Output, Name: "out", Source: id, At: at}.With("x", float64(r))
					m := wire.Message{Type: wire.TypeOutput, SUO: id, At: at, Event: &ev}
					if j == 0 {
						ev.Kind, ev.Name, m.Type = event.Input, "set", wire.TypeInput
					}
					if err := jw.Append(m); err != nil {
						b.Fatal(err)
					}
				}
				if err := jw.Append(wire.Message{Type: wire.TypeHeartbeat, SUO: id, At: at}); err != nil {
					b.Fatal(err)
				}
				records += roundObs + 1
			}
		}
		if err := jw.Close(); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			pool := fleet.NewPool(fleet.Options{Shards: shards})
			jr, err := journal.OpenReader(dir)
			if err != nil {
				b.Fatal(err)
			}
			st, err := pool.Replay(jr, fleet.LightMonitorFactory())
			jr.Close()
			if err != nil {
				b.Fatal(err)
			}
			if st.Devices != fleetDevices || st.Frames+st.Heartbeats != records {
				b.Fatalf("replayed %v, want %d devices and %d records", st, fleetDevices, records)
			}
			if i == 0 {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/fleetDevices, "B/device")
				b.StartTimer()
			}
			pool.Stop()
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkFederationUplink measures the federation tier's steady-state
// cost per rollup flush: the edge folds its cumulative sample into a signed
// delta against the last acked flush, encodes it as a binary TypeRollup
// frame, and the aggregator decodes and credits it into the merged view —
// the complete uplink cycle of ARCHITECTURE.md §7.2 minus the network. The
// counter set is the one a real edge flushes (fleet + server + control +
// diagnosis planes, ~25 names), with a realistic handful changing per
// flush. Reports deltas/s (full fold→encode→decode→credit cycles) and
// bytes/delta (uplink bandwidth per flush).
func BenchmarkFederationUplink(b *testing.B) {
	// The cumulative sample a steady-state edge carries.
	cur := federate.Counters{}
	for _, name := range []string{
		"inputs", "outputs", "comparisons", "deviations", "errors",
		"model_errors", "silence_scans", "dispatched", "dropped",
		"quarantined", "reports", "shed_obs", "shed_hb", "latency_count",
		"latency_sum_ns", "frames", "conns_accepted", "conns_rejected",
		"conns_disconnected", "credit_grants", "credit_violations",
		"recovery_reports", "recovery_resets", "diagnosis_snapshots",
		"diagnosis_fail_windows",
	} {
		cur[name] = 1_000_000
	}
	acked := cur.Clone()

	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.SetCodec(wire.Binary)
	dec := wire.NewDecoder(&buf)
	dec.SetCodec(wire.Binary)
	merged := federate.Counters{}
	var bytesTotal, seq uint64

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A flush interval's worth of activity: the hot counters advance.
		cur["inputs"] += 40
		cur["outputs"] += 40
		cur["comparisons"] += 40
		cur["frames"] += 41
		cur["dispatched"] += 40
		cur["latency_count"] += 40
		cur["latency_sum_ns"] += 40 * 180_000
		if i%16 == 0 {
			cur["deviations"]++
			cur["reports"]++
		}

		// Edge side: fold the delta, frame it, send.
		seq++
		d := cur.Diff(acked)
		buf.Reset()
		err := enc.Encode(wire.Message{Type: wire.TypeRollup, SUO: "edge-0",
			Rollup: &wire.RollupDelta{Seq: seq, Devices: 512, Counters: d.ToWire()}})
		if err != nil {
			b.Fatal(err)
		}
		bytesTotal += uint64(buf.Len())
		acked = cur.Clone()

		// Aggregator side: decode and credit.
		m, err := dec.Decode()
		if err != nil {
			b.Fatal(err)
		}
		merged.Add(federate.FromWire(m.Rollup.Counters))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "deltas/s")
	b.ReportMetric(float64(bytesTotal)/float64(b.N), "bytes/delta")

	if got := merged["outputs"]; got != int64(b.N)*40 {
		b.Fatalf("credited outputs = %d, want %d — conservation broken", got, int64(b.N)*40)
	}
}
