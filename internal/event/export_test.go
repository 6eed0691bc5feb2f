package event

import "sync/atomic"

// PublishedCount returns the total events published so far. Safe to call
// while other goroutines publish.
func (b *Bus) PublishedCount() uint64 { return atomic.LoadUint64(&b.Published) }
