package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"trader/internal/event"
	"trader/internal/wire"
)

// fuzzRecord frames one message the way Writer.Append does: u32 length,
// u32 CRC-32C, binary-codec payload.
func fuzzRecord(tb testing.TB, m wire.Message) []byte {
	payload, err := wire.Binary.Append(nil, m)
	if err != nil {
		tb.Fatal(err)
	}
	rec := make([]byte, recordHeader, recordHeader+len(payload))
	binary.BigEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:recordHeader], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

// fuzzSegment is a small well-formed segment: an observation, a heartbeat
// and a recovery-action record.
func fuzzSegment(tb testing.TB) []byte {
	ev := event.Event{Kind: event.Output, Name: "out", Source: "dev", At: 42, Seq: 7}.With("x", 1.5)
	var seg []byte
	for _, m := range []wire.Message{
		{Type: wire.TypeOutput, SUO: "dev", Event: &ev, At: 42},
		{Type: wire.TypeHeartbeat, SUO: "dev", At: 99},
		{Type: wire.TypeControl, SUO: "dev", Control: wire.CtrlReset, Target: "reset", At: 99},
	} {
		seg = append(seg, fuzzRecord(tb, m)...)
	}
	return seg
}

// fuzzCheckpointSegment is a segment opening with a complete checkpoint
// batch — a device-plane record and a Final shard-plane record — followed by
// one post-checkpoint frame: the resume-point shape the reader's
// opensWithCheckpoint scan classifies.
func fuzzCheckpointSegment(tb testing.TB) []byte {
	ev := event.Event{Kind: event.Output, Name: "out", Source: "dev", At: 42, Seq: 7}.With("x", 1.5)
	var seg []byte
	for _, m := range []wire.Message{
		{Type: wire.TypeCheckpoint, SUO: "dev", At: 40, Checkpoint: &wire.Checkpoint{
			Plane: wire.PlaneDevice, Shard: 0, Seq: 3, At: 40,
			Counters: []wire.CheckpointCounter{{Name: "Comparisons", V: 4}},
		}},
		{Type: wire.TypeCheckpoint, Checkpoint: &wire.Checkpoint{
			Plane: wire.PlaneShard, Shard: 0, Seq: 3, Final: true, Profile: "light",
			Counters: []wire.CheckpointCounter{{Name: "dispatched", V: 4}},
		}},
		{Type: wire.TypeOutput, SUO: "dev", Event: &ev, At: 42},
	} {
		seg = append(seg, fuzzRecord(tb, m)...)
	}
	return seg
}

// readAll drains a journal directory, requiring every failure to be the
// torn-tail io.EOF or a position-carrying *CorruptError — never a panic,
// never an unclassified error.
func drainJournal(t *testing.T, dir string) (records int, torn bool, corrupt bool) {
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if err == nil {
			records++
			continue
		}
		if err == io.EOF {
			return records, r.Torn(), false
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error is neither io.EOF nor *CorruptError: %v", err)
		}
		if ce.Segment == "" {
			t.Fatalf("CorruptError without a segment position: %v", ce)
		}
		return records, false, true
	}
}

// FuzzJournalReader feeds arbitrary bytes to the journal reader as a
// segment file — both as the journal's final segment (where a truncated
// tail is the torn-write crash recovery tolerates) and with a valid
// segment after it (where the very same damage is mid-journal corruption).
// The reader must never panic and must classify every outcome as a clean
// end, a torn tail, or a *CorruptError with position information — and it
// must agree, record for record and error for error, with the
// record-at-a-time reference reader. CI's
// fuzz smoke job runs this next to wire's FuzzDecode (`make fuzz`).
func FuzzJournalReader(f *testing.F) {
	valid := fuzzSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn payload
	f.Add(valid[:recordHeader-2])                     // torn header
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // impossible length
	flipped := append([]byte(nil), valid...)
	flipped[recordHeader+2] ^= 0x40 // payload bit flip: CRC must catch it
	f.Add(flipped)
	badcrc := append([]byte(nil), valid...)
	badcrc[5] ^= 0x01 // stored CRC bit flip
	f.Add(badcrc)
	// Checkpoint-record seeds: a complete resume-point batch, the same batch
	// torn inside its Final record (an interrupted checkpoint — must fall
	// back, never panic), and one with the Final record's payload flipped.
	cpseg := fuzzCheckpointSegment(f)
	f.Add(cpseg)
	f.Add(cpseg[:2*len(cpseg)/3]) // torn inside the batch
	cpflip := append([]byte(nil), cpseg...)
	cpflip[len(cpseg)/2] ^= 0x10
	f.Add(cpflip)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// As the final segment: a truncated tail is a torn write; any
		// corruption must still carry its position.
		last := t.TempDir()
		if err := os.WriteFile(filepath.Join(last, segName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		drainJournal(t, last)
		assertReadersAgree(t, last)

		// As a mid-journal segment (a valid segment follows): now a torn
		// tail in raw is lost data and must be corruption, not a clean end.
		mid := t.TempDir()
		if err := os.WriteFile(filepath.Join(mid, segName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mid, segName(2)), fuzzSegment(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, torn, _ := drainJournal(t, mid); torn {
			t.Fatal("mid-journal truncation classified as a torn tail")
		}
		assertReadersAgree(t, mid)
	})
}

// The fixed-seed cousins of the fuzz target, so the classification
// properties are asserted on every plain `go test` run too.
func TestReaderClassifiesDamage(t *testing.T) {
	valid := fuzzSegment(t)

	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName(1)), valid, 0o644)
		n, torn, corrupt := drainJournal(t, dir)
		if n != 3 || torn || corrupt {
			t.Fatalf("clean segment: %d records, torn=%v corrupt=%v", n, torn, corrupt)
		}
	})
	t.Run("torn tail is tolerated at the end", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName(1)), valid[:len(valid)-3], 0o644)
		n, torn, corrupt := drainJournal(t, dir)
		if n != 2 || !torn || corrupt {
			t.Fatalf("torn tail: %d records, torn=%v corrupt=%v", n, torn, corrupt)
		}
	})
	t.Run("torn record mid-journal is corruption", func(t *testing.T) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName(1)), valid[:len(valid)-3], 0o644)
		os.WriteFile(filepath.Join(dir, segName(2)), valid, 0o644)
		n, torn, corrupt := drainJournal(t, dir)
		if n != 2 || torn || !corrupt {
			t.Fatalf("mid-journal tear: %d records, torn=%v corrupt=%v", n, torn, corrupt)
		}
	})
	t.Run("bit flip is corruption even at the tail", func(t *testing.T) {
		dir := t.TempDir()
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-1] ^= 0x80
		os.WriteFile(filepath.Join(dir, segName(1)), flipped, 0o644)
		if _, torn, corrupt := drainJournal(t, dir); torn || !corrupt {
			t.Fatalf("flipped tail byte: torn=%v corrupt=%v, want corruption", torn, corrupt)
		}
	})
}
