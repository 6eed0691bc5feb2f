package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"trader/internal/event"
	"trader/internal/sim"
	"trader/internal/wire"
)

// frame builds the i'th distinguishable test record: an observation with a
// value payload, so round-trip equality exercises the full codec path.
func frame(i int) wire.Message {
	at := sim.Time(i+1) * sim.Millisecond
	ev := event.Event{Kind: event.Output, Name: "out", Source: "suo", At: at, Seq: uint64(i)}.
		With("x", float64(i)).With("q", 0.5)
	return wire.Message{Type: wire.TypeOutput, SUO: fmt.Sprintf("dev-%03d", i%7), Event: &ev, At: at}
}

func writeFrames(t *testing.T, dir string, opts Options, from, n int) {
	t.Helper()
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		if err := w.Append(frame(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, dir string) ([]wire.Message, *Reader) {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []wire.Message
	for {
		m, err := r.Next()
		if err == io.EOF {
			return out, r
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(out), err)
		}
		out = append(out, m)
	}
}

// lastSegment returns the path of the journal's newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := segments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segments(%s) = %v, %v", dir, names, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	const n = 200
	// Tiny segments force many rotations; replay must cross every boundary.
	writeFrames(t, dir, Options{SegmentBytes: 512}, 0, n)
	names, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want ≥3 segments from 512-byte rotation, got %d", len(names))
	}
	got, r := readAll(t, dir)
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	if r.Torn() {
		t.Fatal("clean journal reported torn")
	}
	for i, m := range got {
		if want := frame(i); !reflect.DeepEqual(m, want) {
			t.Fatalf("record %d = %+v, want %+v", i, m, want)
		}
	}
}

func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	writeFrames(t, dir, Options{}, 0, n)
	// Tear the final record: chop a few bytes off the last segment, as a
	// crash mid-write would.
	last := lastSegment(t, dir)
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	got, r := readAll(t, dir)
	if len(got) != n-1 {
		t.Fatalf("read %d records after torn tail, want %d", len(got), n-1)
	}
	if !r.Torn() {
		t.Fatal("torn tail not reported")
	}

	// A restarting writer must repair the tear before appending new
	// segments — otherwise the tear would become mid-journal corruption.
	writeFrames(t, dir, Options{}, n, 3)
	got, r = readAll(t, dir)
	if len(got) != n-1+3 {
		t.Fatalf("after repair+append: read %d records, want %d", len(got), n-1+3)
	}
	if r.Torn() {
		t.Fatal("repaired journal still reports torn")
	}
	if want := frame(n + 2); !reflect.DeepEqual(got[len(got)-1], want) {
		t.Fatalf("last record = %+v, want %+v", got[len(got)-1], want)
	}
}

func TestCorruptCRCMidSegmentRejectedWithPosition(t *testing.T) {
	dir := t.TempDir()
	writeFrames(t, dir, Options{}, 0, 5)
	// Flip one payload byte inside the first record: structurally intact,
	// semantically corrupt — exactly what the CRC exists to catch.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeader+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Segment != filepath.Base(path) || ce.Offset != 0 || ce.Record != 0 {
		t.Fatalf("corruption position = %s@%d record %d, want %s@0 record 0",
			ce.Segment, ce.Offset, ce.Record, filepath.Base(path))
	}
}

func TestTruncationMidJournalIsCorruption(t *testing.T) {
	dir := t.TempDir()
	// Two segments; tearing the FIRST one's tail must be an error, not a
	// tolerated torn write — segment 2 proves data followed it.
	writeFrames(t, dir, Options{SegmentBytes: 1}, 0, 2) // 1 record per segment
	names, err := segments(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("segments = %v, %v; want ≥2", names, err)
	}
	first := filepath.Join(dir, names[0])
	fi, _ := os.Stat(first)
	if err := os.Truncate(first, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Next()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-journal truncation: err = %v, want *CorruptError", err)
	}
}

func TestEmptyAndMissingDirBootCleanly(t *testing.T) {
	// Missing directory: an empty journal, for both reader and writer.
	missing := filepath.Join(t.TempDir(), "never-created")
	r, err := OpenReader(missing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("missing dir: Next = %v, want io.EOF", err)
	}
	// Empty (existing) directory behaves the same.
	empty := t.TempDir()
	r, err = OpenReader(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty dir: Next = %v, want io.EOF", err)
	}
	// And Create on the missing path makes the directory and journals into it.
	writeFrames(t, missing, Options{}, 0, 1)
	got, _ := readAll(t, missing)
	if len(got) != 1 {
		t.Fatalf("read %d records, want 1", len(got))
	}
}

func TestWriterRestartStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	writeFrames(t, dir, Options{}, 0, 4)
	writeFrames(t, dir, Options{}, 4, 4)
	names, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("two writer lifetimes produced %d segments, want 2", len(names))
	}
	got, _ := readAll(t, dir)
	if len(got) != 8 {
		t.Fatalf("read %d records, want 8", len(got))
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(frame(g*each + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appends != workers*each {
		t.Fatalf("stats appends = %d, want %d", st.Appends, workers*each)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("stats syncs = %d, want 1..%d", st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends in %d fsync batches", st.Appends, st.Syncs)
	got, _ := readAll(t, dir)
	if len(got) != workers*each {
		t.Fatalf("read %d records, want %d", len(got), workers*each)
	}
	if err := w.Append(frame(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}
