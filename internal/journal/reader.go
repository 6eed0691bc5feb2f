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

	"trader/internal/wire"
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
type Reader struct {
	streams []stream // streams not yet finished; streams[0] is current
	f       *os.File
	br      *bufio.Reader
	path    string // current segment's display name (stream-relative)
	off     int64  // byte offset of the next record in the current segment
	lastSeg bool   // the current segment is its stream's final one
	buf     []byte // reused payload buffer
	recs    uint64 // records returned so far
	torn    bool
	skipped int // segments skipped via checkpoint resume points

	// hdr is the record header being read; a local would escape through
	// io.ReadFull and cost an allocation per record.
	hdr [recordHeader]byte
	// dec interns the strings that repeat record after record (device IDs,
	// event and value names, sources): the same Messages wire.Binary
	// decodes, at a fraction of the allocations.
	dec wire.BinaryInterner
}

// stream is one segment sequence: the directory root or a shard subdir.
type stream struct {
	dir  string // absolute directory holding the segments
	rel  string // display prefix ("" for the root, "shard-000/" otherwise)
	segs []string
}

// errSegEnd signals a clean segment boundary to the Next loop.
var errSegEnd = errors.New("journal: segment end")

// OpenReader opens dir for replay. A missing or empty directory is an
// empty journal: Next returns io.EOF immediately.
func OpenReader(dir string) (*Reader, error) {
	rootSegs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	streams := []stream{{dir: dir, rel: "", segs: rootSegs}}
	shards, err := shardDirs(dir)
	if err != nil {
		return nil, err
	}
	for _, sd := range shards {
		segs, err := segments(filepath.Join(dir, sd))
		if err != nil {
			return nil, err
		}
		streams = append(streams, stream{dir: filepath.Join(dir, sd), rel: sd + "/", segs: segs})
	}
	r := &Reader{}
	for i := range streams {
		idx, err := resumeIndex(streams[i].dir, streams[i].segs)
		if err != nil {
			return nil, err
		}
		r.skipped += idx
		streams[i].segs = streams[i].segs[idx:]
	}
	r.streams = streams
	return r, nil
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
// or a *CorruptError pinpointing unrecoverable damage.
func (r *Reader) Next() (wire.Message, error) {
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
			r.f, r.br, r.path, r.off = f, bufio.NewReaderSize(f, 64<<10), st.rel+name, 0
			r.lastSeg = len(st.segs) == 0
		}
		m, err := r.next()
		if err == errSegEnd {
			r.closeSeg()
			continue
		}
		return m, err
	}
}

func (r *Reader) closeSeg() {
	if r.f != nil {
		_ = r.f.Close()
		r.f = nil
	}
}

// next reads one record from the current segment.
func (r *Reader) next() (wire.Message, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		switch err {
		case io.EOF:
			return wire.Message{}, errSegEnd // clean record boundary
		case io.ErrUnexpectedEOF:
			return r.tail("record header")
		default:
			return wire.Message{}, fmt.Errorf("journal: %s: %w", r.path, err)
		}
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	want := binary.BigEndian.Uint32(hdr[4:])
	if n > wire.MaxFrame {
		// Bound the allocation before trusting the length, exactly as the
		// wire framing layer does.
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

// tail classifies an incomplete record: at the end of a stream's final
// segment it is the torn write crash recovery expects — the stream ends
// cleanly (Torn reports it) and replay continues with the next stream.
// Anywhere earlier the stream lost data that later segments continue past,
// which replay must not paper over.
func (r *Reader) tail(what string) (wire.Message, error) {
	if r.lastSeg {
		r.torn = true
		return wire.Message{}, errSegEnd
	}
	return wire.Message{}, r.corrupt("truncated " + what + " mid-journal")
}

func (r *Reader) corrupt(detail string) error {
	return &CorruptError{Segment: r.path, Offset: r.off, Record: r.recs, Detail: detail}
}

// Torn reports whether any stream ended in a torn trailing record — a
// crash mid-append. Meaningful once Next has returned io.EOF.
func (r *Reader) Torn() bool { return r.torn }

// Records returns how many records Next has returned.
func (r *Reader) Records() uint64 { return r.recs }

// SegmentsSkipped returns how many whole segments checkpoint resume points
// allowed the reader to skip without reading.
func (r *Reader) SegmentsSkipped() int { return r.skipped }

// Close releases the reader's current segment file.
func (r *Reader) Close() error {
	r.closeSeg()
	return nil
}
