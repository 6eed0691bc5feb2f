package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"trader/internal/wire"
)

// Pipeline shape. A chunk closes at chunkRecords records or chunkBytes of
// payload, whichever comes first, and at every segment end; chunksInFlight
// chunks exist per reader, so however long the journal, the reader holds at
// most chunksInFlight × (chunkBytes + one record) of payload and as many
// chunks of decoded Messages.
const (
	chunkRecords   = 256
	chunkBytes     = 64 << 10
	chunksInFlight = 16
)

// Reader replays a journal directory in record order. Not safe for
// concurrent use. Next returns io.EOF at the clean end of the journal —
// including after torn trailing records, which Torn then reports.
//
// A sharded journal holds several streams: the flat pre-sharding segments
// in the directory root (replayed first, they are the oldest history) and
// one shard-NNN subdirectory per pool shard, replayed in shard order.
// Within a stream records replay in append order; across streams no order
// is defined — nor needed, since a device's records live in exactly one
// stream and cross-device state is an order-independent fold. Every stream
// was live when the process died, so each stream's FINAL segment may end in
// a torn record; a tear anywhere earlier in a stream is corruption.
//
// Streams that contain a checkpoint resume late: the newest segment that
// opens with a complete checkpoint batch — a prefix of checkpoint records
// ending in one with Final set — is the stream's resume point, and older
// segments are skipped without being read. An incomplete batch (the process
// died mid-checkpoint) is not a resume point; replay falls back to the
// previous one, or the stream's beginning, where the skipped records
// rebuild the same state the long way. Checkpoint restore being absolute
// (assignment, not accumulation) is what makes that fallback safe.
//
// Decoding runs ahead of Next on a bounded, ordered pipeline, started by
// the first Next: one goroutine frames records (segment walk, length bound,
// CRC, tear classification) into chunks, GOMAXPROCS workers decode whole
// chunks, and Next hands the decoded chunks out in the order they were
// framed — the order a record-at-a-time reader would return them. The
// pipeline stops by itself once Next returns io.EOF or an error; Close stops
// it mid-journal. Either way no goroutine outlives Close.
type Reader struct {
	streams []stream // handed to the framer by the first Next
	skipped int      // segments skipped via checkpoint resume points
	recs    uint64   // records returned so far
	torn    bool
	err     error // sticky end: io.EOF, the first error, or ErrClosed

	cur *chunk // chunk being handed out
	pos int    // next message in cur
	p   *pipe  // the running pipeline; nil before the first Next and after it stops
}

// pipe is the read-ahead pipeline's shared plumbing.
type pipe struct {
	stop  chan struct{} // closed to stop the pipeline
	wg    sync.WaitGroup
	free  chan *chunk // chunks ready for the framer
	work  chan *chunk // framed chunks for the decode workers
	order chan *chunk // framed chunks in journal order, for Next
}

// stream is one segment sequence: the directory root or a shard subdir.
type stream struct {
	dir  string // absolute directory holding the segments
	rel  string // display prefix ("" for the root, "shard-000/" otherwise)
	segs []string
}

// chunk is the pipeline's unit: consecutive records of one segment, their
// payloads packed back to back in buf, then their decoded Messages.
type chunk struct {
	seg  string // segment display name
	off  int64  // byte offset of the first record in seg
	base uint64 // records in the journal before this chunk
	buf  []byte // payloads, back to back
	ends []int  // ends[i]: end of record i's payload in buf
	// torn: the segment ends in a torn tail after these records. err, when
	// set, follows these records: io.EOF, a framing or I/O error, or the
	// decode error that cut msgs short.
	torn bool
	err  error

	msgs  []wire.Message // decoded by a worker
	ready chan struct{}  // one token per use: msgs and err are final
}

// openStreams lists dir's streams — the root, then each shard subdir — with
// every stream's segments before its checkpoint resume point dropped, and
// how many segments that dropped.
func openStreams(dir string) ([]stream, int, error) {
	rootSegs, err := segments(dir)
	if err != nil {
		return nil, 0, err
	}
	streams := []stream{{dir: dir, rel: "", segs: rootSegs}}
	shards, err := shardDirs(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, sd := range shards {
		segs, err := segments(filepath.Join(dir, sd))
		if err != nil {
			return nil, 0, err
		}
		streams = append(streams, stream{dir: filepath.Join(dir, sd), rel: sd + "/", segs: segs})
	}
	skipped := 0
	for i := range streams {
		idx, err := resumeIndex(streams[i].dir, streams[i].segs)
		if err != nil {
			return nil, 0, err
		}
		skipped += idx
		streams[i].segs = streams[i].segs[idx:]
	}
	return streams, skipped, nil
}

// OpenReader opens dir for replay. A missing or empty directory is an
// empty journal: Next returns io.EOF immediately. Opening starts no
// goroutine; the first Next does.
func OpenReader(dir string) (*Reader, error) {
	streams, skipped, err := openStreams(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{streams: streams, skipped: skipped}, nil
}

// resumeIndex finds the newest segment of a stream that opens with a
// complete checkpoint batch; segments before it need not be read. Index 0
// means replay from the beginning.
func resumeIndex(dir string, segs []string) (int, error) {
	for i := len(segs) - 1; i > 0; i-- {
		ok, err := opensWithCheckpoint(filepath.Join(dir, segs[i]))
		if err != nil {
			return 0, err
		}
		if ok {
			return i, nil
		}
	}
	return 0, nil
}

// opensWithCheckpoint reports whether the segment's opening records form a
// complete checkpoint batch: checkpoint records only, reaching one with
// Final set before any other record type, tear or damage. Damage makes the
// segment unusable as a resume point but is NOT reported here — replay will
// start earlier and the full read path will position the error properly.
func opensWithCheckpoint(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var hdr [recordHeader]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return false, nil // EOF or tear before the batch completed
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		want := binary.BigEndian.Uint32(hdr[4:])
		if n > wire.MaxFrame {
			return false, nil
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return false, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return false, nil
		}
		var m wire.Message
		if err := wire.Binary.Unmarshal(payload, &m); err != nil {
			return false, nil
		}
		if m.Type != wire.TypeCheckpoint {
			return false, nil
		}
		if m.Checkpoint != nil && m.Checkpoint.Final {
			return true, nil
		}
	}
}

// Next returns the next journaled frame, io.EOF at the end of the journal,
// or a *CorruptError pinpointing unrecoverable damage. Once it has returned
// an error it returns that error again.
func (r *Reader) Next() (wire.Message, error) {
	for {
		if c := r.cur; c != nil {
			if r.pos < len(c.msgs) {
				r.pos++
				r.recs++
				return c.msgs[r.pos-1], nil
			}
			r.cur = nil
			r.torn = r.torn || c.torn
			if c.err != nil {
				r.err = c.err
				r.halt()
				break
			}
			r.p.free <- c // room for every chunk: never blocks
		}
		if r.err != nil {
			break
		}
		if r.p == nil {
			r.start()
		}
		// The framer sends every chunk it fills and, unless Close stopped
		// it, a final one carrying the end; each framed chunk is decoded
		// and signalled exactly once. So neither receive can block for
		// good while the reader is open.
		c := <-r.p.order
		<-c.ready
		r.cur, r.pos = c, 0
	}
	return wire.Message{}, r.err
}

// start launches the framer and the decode workers.
func (r *Reader) start() {
	// Each channel can hold every chunk there is, so only the framer's wait
	// for a free chunk ever blocks: that wait is the pipeline's bound.
	p := &pipe{
		stop:  make(chan struct{}),
		free:  make(chan *chunk, chunksInFlight),
		work:  make(chan *chunk, chunksInFlight),
		order: make(chan *chunk, chunksInFlight),
	}
	for i := 0; i < chunksInFlight; i++ {
		p.free <- &chunk{ready: make(chan struct{}, 1)}
	}
	workers := runtime.GOMAXPROCS(0)
	p.wg.Add(1 + workers)
	fr := &framer{pipe: p, br: bufio.NewReaderSize(nil, 64<<10)}
	go fr.run(r.streams)
	for i := 0; i < workers; i++ {
		go p.decode()
	}
	r.p, r.streams = p, nil
}

// halt stops the pipeline, if it runs, and waits for its goroutines.
func (r *Reader) halt() {
	if r.p != nil {
		close(r.p.stop)
		r.p.wg.Wait()
		r.p = nil
	}
}

// decode is one worker: it decodes whole chunks with its own intern table.
func (p *pipe) decode() {
	defer p.wg.Done()
	var dec wire.BinaryInterner
	for {
		select {
		case c, ok := <-p.work:
			if !ok {
				return
			}
			c.decode(&dec)
			c.ready <- struct{}{} // one token per use: never blocks
		case <-p.stop:
			return
		}
	}
}

// decode turns the chunk's payloads into Messages. A payload the codec
// rejects cuts the chunk short with a *CorruptError positioned at it; the
// records after it — and a torn tail after those — were never reached.
func (c *chunk) decode(dec *wire.BinaryInterner) {
	if c.msgs == nil {
		c.msgs = make([]wire.Message, 0, chunkRecords)
	}
	c.msgs = c.msgs[:len(c.ends)]
	start := 0
	for i, end := range c.ends {
		m := &c.msgs[i]
		*m = wire.Message{}
		if err := dec.Unmarshal(c.buf[start:end], m); err != nil {
			c.msgs = c.msgs[:i]
			c.torn = false
			c.err = &CorruptError{
				Segment: c.seg,
				Offset:  c.off + int64(i*recordHeader+start),
				Record:  c.base + uint64(i),
				Detail:  err.Error(),
			}
			return
		}
		start = end
	}
}

// framer is the pipeline's single reading goroutine: it walks the streams'
// segments, checks each record's length and CRC, classifies tears, and
// packs payloads into chunks in journal order.
type framer struct {
	*pipe
	br   *bufio.Reader
	hdr  [recordHeader]byte
	c    *chunk // chunk being filled
	seg  string // current segment's display name (stream-relative)
	off  int64  // byte offset of the next record in the current segment
	recs uint64 // records framed so far
}

func (fr *framer) run(streams []stream) {
	defer fr.wg.Done()
	defer close(fr.work)
	for _, st := range streams {
		for i, name := range st.segs {
			if !fr.segment(st, name, i == len(st.segs)-1) {
				return
			}
		}
	}
	if fr.begin() {
		fr.end(io.EOF)
	}
}

// segment frames one segment file; lastSeg marks its stream's final one.
// It reports whether framing continues past it.
func (fr *framer) segment(st stream, name string, lastSeg bool) bool {
	fr.seg, fr.off = st.rel+name, 0
	if !fr.begin() {
		return false
	}
	f, err := os.Open(filepath.Join(st.dir, name))
	if err != nil {
		return fr.end(fmt.Errorf("journal: %w", err))
	}
	defer f.Close()
	fr.br.Reset(f)
	for {
		if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
			switch err {
			case io.EOF: // clean record boundary
				return fr.flush() // segment end: a chunk never spans two
			case io.ErrUnexpectedEOF:
				return fr.tail("record header", lastSeg)
			default:
				return fr.end(fmt.Errorf("journal: %s: %w", fr.seg, err))
			}
		}
		n := binary.BigEndian.Uint32(fr.hdr[:4])
		want := binary.BigEndian.Uint32(fr.hdr[4:])
		if n > wire.MaxFrame {
			// Bound the allocation before trusting the length, exactly as the
			// wire framing layer does.
			return fr.end(fr.corrupt(fmt.Sprintf("impossible record length %d", n)))
		}
		c := fr.c
		at := len(c.buf)
		c.buf = slices.Grow(c.buf, int(n))[:at+int(n)]
		payload := c.buf[at:]
		if _, err := io.ReadFull(fr.br, payload); err != nil {
			c.buf = c.buf[:at]
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fr.tail("record payload", lastSeg)
			}
			return fr.end(fmt.Errorf("journal: %s: %w", fr.seg, err))
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			c.buf = c.buf[:at]
			return fr.end(fr.corrupt(fmt.Sprintf("crc mismatch: stored %08x, computed %08x", want, got)))
		}
		c.ends = append(c.ends, len(c.buf))
		fr.off += recordHeader + int64(n)
		fr.recs++
		if len(c.ends) == chunkRecords || len(c.buf) >= chunkBytes {
			if !fr.flush() || !fr.begin() {
				return false
			}
		}
	}
}

// tail classifies an incomplete record: at the end of a stream's final
// segment it is the torn write crash recovery expects — the stream ends
// cleanly (Torn reports it) and replay continues with the next stream.
// Anywhere earlier the stream lost data that later segments continue past,
// which replay must not paper over.
func (fr *framer) tail(what string, lastSeg bool) bool {
	if lastSeg {
		fr.c.torn = true
		return fr.flush()
	}
	return fr.end(fr.corrupt("truncated " + what + " mid-journal"))
}

func (fr *framer) corrupt(detail string) error {
	return &CorruptError{Segment: fr.seg, Offset: fr.off, Record: fr.recs, Detail: detail}
}

// begin takes a free chunk to fill, positioned at the next record. It
// reports false if the pipeline was stopped.
func (fr *framer) begin() bool {
	select {
	case c := <-fr.free:
		if cap(c.buf) > 4*chunkBytes {
			c.buf = nil // one huge record: do not keep its buffer
		}
		c.seg, c.off, c.base = fr.seg, fr.off, fr.recs
		c.buf, c.ends, c.torn, c.err = c.buf[:0], c.ends[:0], false, nil
		fr.c = c
		return true
	case <-fr.stop:
		return false
	}
}

// flush sends the chunk being filled down the pipeline, unless it carries
// nothing, and reports false if the pipeline was stopped. Once sent, the
// chunk is a worker's: the framer reads none of it again.
func (fr *framer) flush() bool {
	c := fr.c
	fr.c = nil
	if len(c.ends) == 0 && !c.torn && c.err == nil {
		fr.free <- c // taken from free a moment ago: never blocks
		return true
	}
	// order and work have room for every chunk there is, so neither send
	// blocks; the selects only make that explicit.
	select {
	case fr.order <- c:
	case <-fr.stop:
		return false
	}
	select {
	case fr.work <- c:
		return true
	case <-fr.stop:
		return false
	}
}

// end closes the pipeline with err after the chunk's records; framing stops.
func (fr *framer) end(err error) bool {
	fr.c.err = err
	fr.flush()
	return false
}

// Torn reports whether any stream ended in a torn trailing record — a
// crash mid-append. Meaningful once Next has returned io.EOF.
func (r *Reader) Torn() bool { return r.torn }

// Records returns how many records Next has returned.
func (r *Reader) Records() uint64 { return r.recs }

// SegmentsSkipped returns how many whole segments checkpoint resume points
// allowed the reader to skip without reading.
func (r *Reader) SegmentsSkipped() int { return r.skipped }

// Close stops the read-ahead pipeline and releases the segment it had
// open; once it returns, no goroutine of the reader is left. Next returns
// ErrClosed afterwards, unless it had already ended. Close is idempotent.
func (r *Reader) Close() error {
	r.halt()
	r.cur = nil
	if r.err == nil {
		r.err = ErrClosed
	}
	return nil
}
