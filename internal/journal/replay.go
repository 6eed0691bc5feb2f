package journal

import (
	"io"

	"trader/internal/wire"
)

// Plane is one consumer of a journal replay: the replay half of the plane
// contract (ARCHITECTURE.md §3.6). The fleet pool, the recovery controller,
// the diagnosis engine and the federation aggregator each implement it over
// their own state, picking the record types they own out of the shared
// stream and ignoring the rest.
type Plane interface {
	// Apply takes one journal record, in reader order (§3.4). A non-nil
	// error aborts the replay. m.Event and its Values are borrowed, valid
	// until Apply returns (Reader.Next); the rest of m is the plane's.
	Apply(m wire.Message) error
	// Settle runs once, after the last record: barriers drain, deferred
	// restores land, and a plane that consumes live traffic subscribes to
	// it — only now, so nothing a replayed record provokes is mistaken for
	// live input.
	Settle() error
}

// Replay is the replay driver, the one record loop every recovery path
// shares: it reads r to its end, hands each record to every plane in
// argument order, then settles the planes in the same order. However many
// planes boot from a journal, the directory is read once.
func Replay(r *Reader, planes ...Plane) error {
	for {
		m, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, p := range planes {
			if err := p.Apply(m); err != nil {
				return err
			}
		}
	}
	for _, p := range planes {
		if err := p.Settle(); err != nil {
			return err
		}
	}
	return nil
}
