package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"trader/internal/event"
	"trader/internal/wire"
)

// seqReader is the record-at-a-time reference the pipelined Reader must
// match: it frames a record, checks its CRC and decodes it on the caller,
// one record per Next, over the same streams OpenReader lists.
type seqReader struct {
	streams []stream
	f       *os.File
	br      *bufio.Reader
	path    string
	off     int64
	lastSeg bool
	buf     []byte
	recs    uint64
	torn    bool
	skipped int
	dec     wire.BinaryInterner
}

var errSeqSegEnd = errors.New("segment end")

func openSeqReader(dir string) (*seqReader, error) {
	streams, skipped, err := openStreams(dir)
	if err != nil {
		return nil, err
	}
	return &seqReader{streams: streams, skipped: skipped}, nil
}

func (r *seqReader) Next() (wire.Message, error) {
	for {
		if r.f == nil {
			for len(r.streams) > 0 && len(r.streams[0].segs) == 0 {
				r.streams = r.streams[1:]
			}
			if len(r.streams) == 0 {
				return wire.Message{}, io.EOF
			}
			st := &r.streams[0]
			name := st.segs[0]
			st.segs = st.segs[1:]
			f, err := os.Open(filepath.Join(st.dir, name))
			if err != nil {
				return wire.Message{}, fmt.Errorf("journal: %w", err)
			}
			r.f, r.br, r.path, r.off = f, bufio.NewReader(f), st.rel+name, 0
			r.lastSeg = len(st.segs) == 0
		}
		m, err := r.next()
		if err == errSeqSegEnd {
			r.f.Close()
			r.f = nil
			continue
		}
		return m, err
	}
}

func (r *seqReader) next() (wire.Message, error) {
	var hdr [recordHeader]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		switch err {
		case io.EOF:
			return wire.Message{}, errSeqSegEnd
		case io.ErrUnexpectedEOF:
			return r.tail("record header")
		default:
			return wire.Message{}, fmt.Errorf("journal: %s: %w", r.path, err)
		}
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	want := binary.BigEndian.Uint32(hdr[4:])
	if n > wire.MaxFrame {
		return wire.Message{}, r.corrupt(fmt.Sprintf("impossible record length %d", n))
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	payload := r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return r.tail("record payload")
		}
		return wire.Message{}, fmt.Errorf("journal: %s: %w", r.path, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return wire.Message{}, r.corrupt(fmt.Sprintf("crc mismatch: stored %08x, computed %08x", want, got))
	}
	var m wire.Message
	if err := r.dec.Unmarshal(payload, &m); err != nil {
		return wire.Message{}, r.corrupt(err.Error())
	}
	r.off += recordHeader + int64(n)
	r.recs++
	return m, nil
}

func (r *seqReader) tail(what string) (wire.Message, error) {
	if r.lastSeg {
		r.torn = true
		return wire.Message{}, errSeqSegEnd
	}
	return wire.Message{}, r.corrupt("truncated " + what + " mid-journal")
}

func (r *seqReader) corrupt(detail string) error {
	return &CorruptError{Segment: r.path, Offset: r.off, Record: r.recs, Detail: detail}
}

func (r *seqReader) Torn() bool           { return r.torn }
func (r *seqReader) Records() uint64      { return r.recs }
func (r *seqReader) SegmentsSkipped() int { return r.skipped }

func (r *seqReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// readOutcome is everything a drained reader reports.
type readOutcome struct {
	msgs    []wire.Message
	err     error // io.EOF or the first error
	torn    bool
	records uint64
	skipped int
}

// reader is what both readers answer once drained.
type reader interface {
	Next() (wire.Message, error)
	Torn() bool
	Records() uint64
	SegmentsSkipped() int
}

func drain(r reader) readOutcome {
	var out readOutcome
	for {
		m, err := r.Next()
		if err != nil {
			out.err = err
			break
		}
		out.msgs = append(out.msgs, m)
	}
	out.torn, out.records, out.skipped = r.Torn(), r.Records(), r.SegmentsSkipped()
	return out
}

// assertReadersAgree drains dir with both readers and requires the same
// messages, the same end (io.EOF, or the same *CorruptError field for
// field), and the same Torn, Records and SegmentsSkipped.
func assertReadersAgree(tb testing.TB, dir string) readOutcome {
	tb.Helper()
	seq, err := openSeqReader(dir)
	if err != nil {
		tb.Fatalf("openSeqReader: %v", err)
	}
	defer seq.Close()
	pip, err := OpenReader(dir)
	if err != nil {
		tb.Fatalf("OpenReader: %v", err)
	}
	defer pip.Close()
	want, got := drain(seq), drain(pip)
	if len(got.msgs) != len(want.msgs) {
		tb.Fatalf("pipelined reader returned %d records, reference %d (ends %v / %v)",
			len(got.msgs), len(want.msgs), got.err, want.err)
	}
	for i := range want.msgs {
		if !sameMessage(got.msgs[i], want.msgs[i]) {
			tb.Fatalf("record %d: pipelined %+v, reference %+v", i, got.msgs[i], want.msgs[i])
		}
	}
	var wce, gce *CorruptError
	switch {
	case errors.As(want.err, &wce):
		if !errors.As(got.err, &gce) || *gce != *wce {
			tb.Fatalf("end: pipelined %v, reference %v", got.err, want.err)
		}
	case got.err == nil || want.err == nil || got.err.Error() != want.err.Error():
		tb.Fatalf("end: pipelined %v, reference %v", got.err, want.err)
	}
	if got.torn != want.torn || got.records != want.records || got.skipped != want.skipped {
		tb.Fatalf("pipelined torn=%v records=%d skipped=%d, reference torn=%v records=%d skipped=%d",
			got.torn, got.records, got.skipped, want.torn, want.records, want.skipped)
	}
	return want
}

// sameMessage is reflect.DeepEqual, except that a NaN value — not DeepEqual
// to itself — compares by its encoding.
func sameMessage(a, b wire.Message) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	ab, aerr := wire.Binary.Append(nil, a)
	bb, berr := wire.Binary.Append(nil, b)
	return aerr == nil && berr == nil && string(ab) == string(bb)
}

// writeSharded journals per records for each of devices devices, spread
// over shards streams by the sharded writer: observations, with a
// heartbeat every seventh round.
func writeSharded(t *testing.T, dir string, shards, devices, per int, opts Options) {
	t.Helper()
	w, err := CreateSharded(dir, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < per; i++ {
		for d := 0; d < devices; d++ {
			ev := event.Event{Kind: event.Output, Name: "out", Source: fmt.Sprintf("dev-%04d", d), At: 1, Seq: uint64(i)}.
				With("x", float64(i))
			m := wire.Message{Type: wire.TypeOutput, SUO: fmt.Sprintf("dev-%04d", d), Event: &ev, At: 1}
			if i%7 == 3 {
				m = wire.Message{Type: wire.TypeHeartbeat, SUO: m.SUO, At: 2}
			}
			if err := w.AppendShard(d%shards, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// streamSegments lists a shard stream's segment paths in order.
func streamSegments(t *testing.T, dir string, shard int) []string {
	t.Helper()
	sd := filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
	names, err := segments(sd)
	if err != nil || len(names) == 0 {
		t.Fatalf("segments(%s) = %v, %v", sd, names, err)
	}
	for i := range names {
		names[i] = filepath.Join(sd, names[i])
	}
	return names
}

// rewrite applies fn to the file's bytes in place.
func rewrite(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordStarts returns the byte offset of every whole record in a segment.
func recordStarts(raw []byte) []int {
	var starts []int
	for off := 0; off+recordHeader <= len(raw); {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if off+recordHeader+n > len(raw) {
			break
		}
		starts = append(starts, off)
		off += recordHeader + n
	}
	return starts
}

// The pipelined Reader is the record-at-a-time reader, reordered by
// nothing: on every journal shape — clean, resumed, torn, corrupt — both
// return the same records, end the same way and report the same counters.
func TestReaderMatchesSequentialOracle(t *testing.T) {
	const shards, devices, per = 3, 40, 60 // 2 400 records: many chunks per stream
	build := func(t *testing.T, opts Options) string {
		dir := t.TempDir()
		writeSharded(t, dir, shards, devices, per, opts)
		return dir
	}

	t.Run("multi-stream sharded journal", func(t *testing.T) {
		dir := build(t, Options{NoSync: true})
		out := assertReadersAgree(t, dir)
		if len(out.msgs) != devices*per || out.err != io.EOF || out.torn {
			t.Fatalf("%d records, end %v, torn %v; want %d, io.EOF, clean", len(out.msgs), out.err, out.torn, devices*per)
		}
		// Also across many small segments per stream.
		dir = build(t, Options{NoSync: true, SegmentBytes: 4 << 10})
		if len(streamSegments(t, dir, 0)) < 3 {
			t.Fatal("want several segments per stream")
		}
		if out := assertReadersAgree(t, dir); len(out.msgs) != devices*per {
			t.Fatalf("%d records, want %d", len(out.msgs), devices*per)
		}
	})

	t.Run("checkpoint resume point", func(t *testing.T) {
		dir := build(t, Options{NoSync: true, SegmentBytes: 4 << 10})
		// A segment after the written ones that opens with a complete
		// checkpoint batch: everything before it in the stream is skipped.
		segs := streamSegments(t, dir, 1)
		idx, _ := segIndex(filepath.Base(segs[len(segs)-1]))
		cp := fuzzCheckpointSegment(t)
		if err := os.WriteFile(filepath.Join(filepath.Dir(segs[0]), segName(idx+1)), cp, 0o644); err != nil {
			t.Fatal(err)
		}
		if out := assertReadersAgree(t, dir); out.skipped != len(segs) {
			t.Fatalf("skipped %d segments, want %d", out.skipped, len(segs))
		}
	})

	t.Run("torn tails in two streams", func(t *testing.T) {
		dir := build(t, Options{NoSync: true, SegmentBytes: 4 << 10})
		for _, s := range []int{0, 2} {
			segs := streamSegments(t, dir, s)
			rewrite(t, segs[len(segs)-1], func(b []byte) []byte { return b[:len(b)-5] })
		}
		if out := assertReadersAgree(t, dir); !out.torn || out.err != io.EOF || len(out.msgs) != devices*per-2 {
			t.Fatalf("%d records, end %v, torn %v", len(out.msgs), out.err, out.torn)
		}
	})

	t.Run("crc flip mid-stream", func(t *testing.T) {
		dir := build(t, Options{NoSync: true})
		seg := streamSegments(t, dir, 1)[0]
		rewrite(t, seg, func(b []byte) []byte {
			at := recordStarts(b)[500]
			b[at+recordHeader+3] ^= 0x20
			return b
		})
		out := assertReadersAgree(t, dir)
		var ce *CorruptError
		if !errors.As(out.err, &ce) || ce.Record == 0 {
			t.Fatalf("end %v, want a positioned *CorruptError", out.err)
		}
	})

	t.Run("valid crc the codec rejects", func(t *testing.T) {
		dir := build(t, Options{NoSync: true})
		// Torn tail in stream 0 first, so Torn must agree at the error too.
		segs0 := streamSegments(t, dir, 0)
		rewrite(t, segs0[len(segs0)-1], func(b []byte) []byte { return b[:len(b)-3] })
		seg := streamSegments(t, dir, 2)[0]
		rewrite(t, seg, func(b []byte) []byte {
			at := recordStarts(b)[300]
			n := binary.BigEndian.Uint32(b[at:])
			payload := b[at+recordHeader : at+recordHeader+int(n)]
			payload[0] = 0xee // no such type tag
			binary.BigEndian.PutUint32(b[at+4:], crc32.Checksum(payload, castagnoli))
			return b
		})
		out := assertReadersAgree(t, dir)
		var ce *CorruptError
		if !errors.As(out.err, &ce) || ce.Segment != "shard-002/"+filepath.Base(seg) || !out.torn {
			t.Fatalf("end %v, torn %v; want a codec *CorruptError in shard-002 after a torn stream", out.err, out.torn)
		}
	})

	t.Run("truncation mid-journal", func(t *testing.T) {
		dir := build(t, Options{NoSync: true, SegmentBytes: 4 << 10})
		segs := streamSegments(t, dir, 1)
		rewrite(t, segs[1], func(b []byte) []byte { return b[:len(b)-4] })
		out := assertReadersAgree(t, dir)
		var ce *CorruptError
		if !errors.As(out.err, &ce) {
			t.Fatalf("end %v, want *CorruptError", out.err)
		}
	})

	t.Run("missing and empty dir", func(t *testing.T) {
		for _, dir := range []string{filepath.Join(t.TempDir(), "never-created"), t.TempDir()} {
			if out := assertReadersAgree(t, dir); out.err != io.EOF || len(out.msgs) != 0 {
				t.Fatalf("%s: %d records, end %v", dir, len(out.msgs), out.err)
			}
		}
	})
}

// settledGoroutines returns the goroutine count once it has fallen to at
// most want, yielding the processor between looks: a goroutine that has
// signalled its WaitGroup may still be running its last instructions when
// Close returns. It gives up after a bounded number of yields.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// The pipeline's lifecycle: opening starts nothing; draining to io.EOF,
// stopping at a *CorruptError or closing mid-journal leaves no goroutine
// behind once Close returns; Close is idempotent. Run under -race
// -count=10 in CI.
func TestReaderLifecycleLeavesNoGoroutines(t *testing.T) {
	clean := t.TempDir()
	writeSharded(t, clean, 2, 20, 100, Options{NoSync: true})
	damaged := t.TempDir()
	writeSharded(t, damaged, 2, 20, 100, Options{NoSync: true})
	rewrite(t, streamSegments(t, damaged, 0)[0], func(b []byte) []byte {
		b[recordStarts(b)[400]+recordHeader+1] ^= 0x01
		return b
	})
	base := settledGoroutines(runtime.NumGoroutine())

	open := func(dir string) *Reader {
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	check := func(what string, r *Reader) {
		t.Helper()
		for i := 0; i < 2; i++ { // idempotent
			if err := r.Close(); err != nil {
				t.Fatalf("%s: Close: %v", what, err)
			}
			if n := settledGoroutines(base); n != base {
				t.Fatalf("%s: %d goroutines after Close, baseline %d", what, n, base)
			}
		}
	}

	r := open(clean)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("an unread reader runs %d goroutines over the baseline", n-base)
	}
	check("never read", r)

	r = open(clean)
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	check("drained to io.EOF", r)

	r = open(damaged)
	var err error
	for err == nil {
		_, err = r.Next()
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("damaged journal ended with %v, want *CorruptError", err)
	}
	if _, again := r.Next(); again != err {
		t.Fatalf("Next after the error = %v, want the same error", again)
	}
	check("stopped at a CorruptError", r)

	r = open(clean)
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	check("closed mid-journal", r)
	if _, err := r.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
}

// Allocation gate on the consumer side of Next: with decoding done on the
// workers, handing records out — chunk hand-over included — allocates
// nothing. The journal fits the pipeline whole, so once the framer and the
// workers have finished and exited, AllocsPerRun sees Next alone. The
// decode side is gated in internal/wire: one allocation per one-value
// observation.
func TestReaderNextConsumerAllocatesNothing(t *testing.T) {
	const n = (chunksInFlight - 2) * chunkRecords // + the end chunk: fits in flight
	dir := t.TempDir()
	writeFrames(t, dir, Options{NoSync: true}, 0, n)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := func() {
		if m, err := r.Next(); err != nil || m.Event == nil {
			t.Fatalf("Next = %+v, %v", m, err)
		}
	}
	next() // starts the pipeline
	r.p.wg.Wait()
	if got := testing.AllocsPerRun(n-2, next); got != 0 {
		t.Fatalf("Reader.Next allocates %.3f times per record on the consumer side, want 0", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after %d records: %v, want io.EOF", n, err)
	}
}
