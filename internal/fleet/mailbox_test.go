package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parked starts a mailbox of the given size whose goroutine is held inside
// its first closure until release is called, so the queue behind it can be
// filled deterministically.
func parked(t *testing.T, size int) (m *Mailbox, release func()) {
	t.Helper()
	m = &Mailbox{}
	m.Start(size)
	gate, entered := make(chan struct{}), make(chan struct{})
	if !m.Try(func() { close(entered); <-gate }) {
		t.Fatal("empty mailbox refused a closure")
	}
	<-entered
	return m, sync.OnceFunc(func() { close(gate) })
}

func TestMailboxFIFOAndDoBarrier(t *testing.T) {
	var m Mailbox
	m.Start(64)
	defer m.Close()
	var got []int
	for i := 0; i < 50; i++ {
		if !m.Try(func() { got = append(got, i) }) {
			t.Fatalf("Try %d refused with room in the queue", i)
		}
	}
	n := 0
	m.Do(func() { n = len(got) })
	if n != 50 {
		t.Fatalf("Do ran with %d of 50 earlier closures done", n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("closure %d ran in position %d", v, i)
		}
	}
}

func TestMailboxShedsWhenFull(t *testing.T) {
	m, release := parked(t, 2)
	defer m.Close()
	defer release()
	ran := 0
	for i := 0; i < 5; i++ {
		m.Try(func() { ran++ })
	}
	if d := m.Dropped(); d != 3 {
		t.Fatalf("Dropped = %d after 5 Try into 2 slots, want 3", d)
	}
	release()
	m.Do(func() {})
	if ran != 2 {
		t.Fatalf("%d closures ran, want the 2 that were accepted", ran)
	}
}

// TestMailboxTryNeverWaitsBehindBlockedDo is the regression test for the
// planes' shared defect: a Do (or Post) waiting for a slot used to hold the
// lifecycle lock exclusively, stalling every Try behind it.
func TestMailboxTryNeverWaitsBehindBlockedDo(t *testing.T) {
	m, release := parked(t, 1)
	defer m.Close()
	defer release()
	m.Try(func() {}) // the one slot
	blocked := make(chan struct{})
	go func() { m.Do(func() {}); close(blocked) }()
	go m.Post(func() {})
	time.Sleep(20 * time.Millisecond) // let both reach the full queue
	accepted := make(chan bool)
	go func() { accepted <- m.Try(func() {}) }()
	select {
	case ok := <-accepted:
		if ok {
			t.Fatal("Try was accepted by a full mailbox")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Try blocked behind a Do waiting for a slot")
	}
	if d := m.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
	release()
	<-blocked
}

func TestMailboxCloseUnderConcurrentProducers(t *testing.T) {
	var m Mailbox
	m.Start(8)
	var accepted, ran atomic.Int64
	count := func() { ran.Add(1) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch (g + i) % 3 {
				case 0:
					if m.Try(count) {
						accepted.Add(1)
					}
				case 1:
					if m.Post(count) {
						accepted.Add(1)
					}
				default:
					m.Do(count) // runs exactly once, on the loop or the caller
					accepted.Add(1)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	var closers sync.WaitGroup
	for i := 0; i < 3; i++ {
		closers.Add(1)
		go func() { defer closers.Done(); m.Close() }()
	}
	closers.Wait()
	// Everything Try and Post accepted has run by the time Close returns;
	// only Do calls still in flight (they run on their callers) may add to
	// both counts afterwards, one each.
	wg.Wait()
	if a, r := accepted.Load(), ran.Load(); a != r {
		t.Fatalf("%d closures accepted, %d ran", a, r)
	}
	m.Close() // idempotent
	if m.Try(count) || m.Post(count) {
		t.Fatal("closed mailbox accepted a closure")
	}
}

func TestMailboxRunsAcceptedBeforeCloseReturns(t *testing.T) {
	m, release := parked(t, 16)
	ran := 0
	for i := 0; i < 10; i++ {
		m.Try(func() { ran++ })
	}
	release()
	m.Close()
	if ran != 10 {
		t.Fatalf("Close returned with %d of 10 accepted closures run", ran)
	}
}

func TestMailboxDoAfterCloseRunsOnCaller(t *testing.T) {
	var m Mailbox
	m.Start(4)
	state := 0
	m.Try(func() { state = 7 })
	m.Close()
	dropped := m.Dropped()
	if m.Try(func() { state = -1 }) {
		t.Fatal("Try accepted after Close")
	}
	if m.Dropped() != dropped {
		t.Fatal("a closed mailbox's shed count moved: its state is frozen")
	}
	got := 0
	m.Do(func() { got = state }) // no loop is left to run it: it ran here
	if got != 7 {
		t.Fatalf("Do after Close read %d, want the frozen 7", got)
	}
	// Mutating Do calls after Close take turns (the race detector checks).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); m.Do(func() { state++ }) }()
	}
	wg.Wait()
	if state != 15 {
		t.Fatalf("state = %d after 8 increments on 7", state)
	}
}

// TestFlushDeviceAllocs pins the cost of the pool's synchronous command
// wrapper: one reply channel and one closure, as before call existed.
func TestFlushDeviceAllocs(t *testing.T) {
	p := NewPool(Options{Shards: 1})
	defer p.Stop()
	if got := testing.AllocsPerRun(200, func() { _ = p.FlushDevice("dev") }); got > 2 {
		t.Fatalf("FlushDevice allocates %.1f objects per call, want ≤ 2", got)
	}
}
