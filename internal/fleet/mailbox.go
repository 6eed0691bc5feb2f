package fleet

import (
	"sync"
	"sync/atomic"
)

// Mailbox is the plane goroutine (ARCHITECTURE.md §3.6): one goroutine
// draining a bounded queue of closures, the idiom the pool's shards use
// (cmds chan func(*shard)) without the shard. The recovery controller and
// the diagnosis engine each own one; every piece of plane state is touched
// only by closures run through it, so the planes need no locks of their own.
//
// The zero Mailbox counts (Dropped, SetDropped) but runs nothing — the state
// of a plane driven synchronously, with no goroutine (the policy tests, the
// offline replay). Start it before the first Try, Post, Do or Close.
type Mailbox struct {
	cmds chan func()
	done chan struct{} // closed when the loop has exited

	// mu orders enqueues against Close closing cmds: enqueuers hold the read
	// side — so one waiting for a slot never stalls another — Close the write
	// side. The shape Pool.send has with opMu.
	mu     sync.RWMutex
	closed bool

	frozen  sync.Mutex // serialises Do calls that run on their caller after Close
	dropped atomic.Uint64
}

// Start sizes the queue and starts the goroutine.
func (m *Mailbox) Start(size int) {
	m.cmds = make(chan func(), size)
	m.done = make(chan struct{})
	go m.loop()
}

func (m *Mailbox) loop() {
	defer close(m.done)
	for fn := range m.cmds {
		fn()
	}
}

// Try enqueues fn if there is room and never blocks: the verb of producers
// that must not stall (shard and connection goroutines). A full mailbox
// sheds fn and counts it in Dropped; a closed one refuses it silently —
// its state, shed count included, is frozen.
func (m *Mailbox) Try(fn func()) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false
	}
	select {
	case m.cmds <- fn:
		return true
	default:
		m.dropped.Add(1)
		return false
	}
}

// Post enqueues fn, waiting for a slot but not for the run, so a producer
// that may not lose work (the replay driver) stays pipelined with the loop.
// It reports false on a closed mailbox.
func (m *Mailbox) Post(fn func()) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false
	}
	m.cmds <- fn
	return true
}

// Do runs fn on the goroutine behind everything enqueued before it and waits
// for it: a query, and with an empty fn a barrier. On a closed mailbox it
// waits for the loop to exit and runs fn on the caller instead — the state
// is frozen, nothing else touches it but other such calls, which take turns.
func (m *Mailbox) Do(fn func()) {
	ran := make(chan struct{})
	if m.Post(func() { fn(); close(ran) }) {
		<-ran
		return
	}
	<-m.done
	m.frozen.Lock()
	defer m.frozen.Unlock()
	fn()
}

// Close stops the goroutine once it has run everything accepted so far and
// returns when it has exited. Idempotent, safe from any goroutine.
func (m *Mailbox) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.cmds)
	}
	m.mu.Unlock()
	<-m.done
}

// Dropped counts the closures Try shed on a full mailbox.
func (m *Mailbox) Dropped() uint64 { return m.dropped.Load() }

// SetDropped restores the shed count from a checkpoint record.
func (m *Mailbox) SetDropped(n uint64) { m.dropped.Store(n) }
