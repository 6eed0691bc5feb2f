package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"trader/internal/wire"
)

// Sharded partitions a journal directory into per-shard segment streams:
// shard-NNN/wal-*.seg, one stream per fleet pool shard, each with its own
// Writer and therefore its own group-commit fsync pipeline. The flat layout
// serialises every connection behind one fsync queue; with N streams the
// device population's append traffic commits on N spindles' worth of
// concurrent fsyncs. Routing is by device ID (ShardOf, the same FNV-1a hash
// fleet.Pool uses), so every record for one device lives in exactly one
// stream and per-device replay order is preserved stream-locally — which is
// all replay needs, because cross-device state is an order-independent fold.
//
// Segments already present in the directory root (a flat journal written by
// an earlier run) are left in place; the Reader replays them before any
// shard stream, so upgrading to the sharded layout keeps full history.
type Sharded struct {
	dir string
	ws  []*Writer
}

const shardPrefix = "shard-"

// shardDirName formats the canonical per-shard subdirectory name.
func shardDirName(i int) string { return fmt.Sprintf("%s%03d", shardPrefix, i) }

// shardDirIndex parses a shard subdirectory name, ok=false for foreign dirs.
func shardDirIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, shardPrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(strings.TrimPrefix(name, shardPrefix))
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// shardDirs lists existing shard subdirectories of dir in index order.
func shardDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	type sd struct {
		name string
		idx  int
	}
	var dirs []sd
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if i, ok := shardDirIndex(e.Name()); ok {
			dirs = append(dirs, sd{e.Name(), i})
		}
	}
	sort.Slice(dirs, func(a, b int) bool { return dirs[a].idx < dirs[b].idx })
	names := make([]string, len(dirs))
	for i, d := range dirs {
		names[i] = d.name
	}
	return names, nil
}

// ShardOf routes a device ID to a shard: FNV-1a over the ID, modulo the
// shard count. fleet.Pool routes through this same function (fleet.RangeOf):
// the whole per-stream ordering argument rests on the journal and the pool
// agreeing on which shard owns a device. The mapping is on disk — a golden-
// vector test in internal/fleet pins it.
func ShardOf(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// CreateSharded opens dir as a sharded journal with the given stream count,
// creating the per-shard subdirectories on first use. Reopening an existing
// sharded journal with a different shard count is refused: records are
// routed by ID-hash modulo the count, so changing it would scatter a
// device's history across streams and break per-device replay order.
func CreateSharded(dir string, shards int, opts Options) (*Sharded, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("journal: shard count must be positive, got %d", shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	existing, err := shardDirs(dir)
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 && len(existing) != shards {
		return nil, fmt.Errorf("journal: %s holds %d shard streams, cannot reopen with %d (shard routing would change)",
			dir, len(existing), shards)
	}
	s := &Sharded{dir: dir, ws: make([]*Writer, shards)}
	for i := range s.ws {
		w, err := Create(filepath.Join(dir, shardDirName(i)), opts)
		if err != nil {
			for _, prev := range s.ws[:i] {
				_ = prev.Close()
			}
			return nil, err
		}
		s.ws[i] = w
	}
	return s, nil
}

// Shards returns the stream count.
func (s *Sharded) Shards() int { return len(s.ws) }

// Append routes m to its device's stream (by SUO) and appends durably.
func (s *Sharded) Append(m wire.Message) error {
	return s.ws[ShardOf(m.SUO, len(s.ws))].Append(m)
}

// AppendThen routes m to its device's stream; see Writer.AppendThen for the
// sync and then semantics.
func (s *Sharded) AppendThen(m wire.Message, sync bool, then func()) error {
	return s.ws[ShardOf(m.SUO, len(s.ws))].AppendThen(m, sync, then)
}

// AppendShard appends m to an explicit stream, bypassing ID routing. Shard
// 0 is the home of stream-independent records (the profile marker, the
// control- and diagnosis-plane checkpoints).
func (s *Sharded) AppendShard(i int, m wire.Message) error {
	return s.ws[i].AppendShard(m)
}

// AppendShard on a Writer is Append; it exists so *Writer and *Sharded can
// share test harnesses.
func (w *Writer) AppendShard(m wire.Message) error { return w.Append(m) }

// Checkpoint writes a global checkpoint. It freezes every stream (all
// writer locks, taken in shard order), calls capture to snapshot the state
// machine the journal feeds — capture sees a log with no records in flight,
// so the snapshot corresponds to an exact prefix of every stream — and
// writes capture's per-shard record batches as the opening records of a
// fresh segment in each stream, fsyncs them, and reclaims all older
// segments (including any flat pre-sharding segments in the directory
// root, whose history the checkpoint also covers).
//
// capture must return exactly Shards() batches and must not append to this
// journal (every stream's lock is held).
func (s *Sharded) Checkpoint(capture func() ([][]wire.Message, error)) error {
	for _, w := range s.ws {
		w.mu.Lock()
	}
	defer func() {
		for _, w := range s.ws {
			w.mu.Unlock()
		}
	}()
	batches, err := capture()
	if err != nil {
		return fmt.Errorf("journal: checkpoint capture: %w", err)
	}
	if len(batches) != len(s.ws) {
		return fmt.Errorf("journal: checkpoint capture returned %d batches for %d shards", len(batches), len(s.ws))
	}
	for i, w := range s.ws {
		if err := w.checkpointLocked(batches[i]); err != nil {
			return fmt.Errorf("journal: checkpoint shard %d: %w", i, err)
		}
	}
	// The flat-era history (segments in the directory root, from runs that
	// predate sharding) is covered by the checkpoint too.
	names, err := segments(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return fmt.Errorf("journal: truncate: %w", err)
		}
	}
	if len(names) > 0 && !s.ws[0].opts.NoSync {
		return syncDir(s.dir)
	}
	return nil
}

// Stats aggregates the per-stream writer counters.
func (s *Sharded) Stats() WriterStats {
	var t WriterStats
	for _, w := range s.ws {
		st := w.Stats()
		t.Appends += st.Appends
		t.Syncs += st.Syncs
		t.Segments += st.Segments
	}
	return t
}

// Close closes every stream, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, w := range s.ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
