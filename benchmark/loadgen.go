package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trader/internal/sim"
	"trader/internal/wire"
)

// This file is the load generator: one process, one connection per device,
// one sender goroutine per connection plus a parked reader. It speaks the
// §2 wire protocol itself — a JSON Hello, then binary frames built with the
// codec's Append — and writes a whole window or tick with one write, so its
// own cost stays far below the daemon's (loadgen.cpu_us_per_frame).

const (
	// windowFrames is the closed-loop window: observations per heartbeat.
	windowFrames = 256
	// tick is the open-loop period; pacedTickFrames observations are due on
	// every tick of wire_paced — 100 000 frames/s per connection, a
	// constant chosen once and never derived from a measured rate.
	tick            = time.Millisecond
	pacedTickFrames = 100
	// recoverTickFrames is the offered load right after a cold boot: a
	// tenth of wire_paced, because that daemon also journals and holds
	// 20 000 devices.
	recoverTickFrames = 10
	// probeEveryTicks puts a heartbeat probe on every second tick.
	probeEveryTicks = 2
	// pacedBurstEvery and closedBurstEvery space the deviation bursts. The
	// closed loops run under -recover default on wire_durable, whose
	// ladder forgets a device after 5 s (virtual) of quiet: 6 000 frames
	// are 6 s, so every burst is a fresh first offence and no device is
	// ever reset, restarted or quarantined.
	pacedBurstEvery  = 200
	closedBurstEvery = 6000
	// echoTimeout is how long a probe may stay unanswered before it counts
	// as failed.
	echoTimeout = 5 * time.Second
	// spinWindow: the pacer sleeps in the kernel to within this much of the
	// due instant, then busy-waits. Each pacer owns an OS thread with its
	// timer slack set to 1 ns (the default 50 µs is added to every
	// nanosleep), so a nanosleep overshoots by well under 50 µs here; the Go
	// runtime's own timers overshoot by up to a millisecond, which is why
	// the pacer does not use time.Sleep. A wider window keeps a core busy:
	// at 200 µs the generator cost 1.8 µs per frame, half the daemon's.
	spinWindow = 80 * time.Microsecond
)

// sample is one latency observation, stamped with when it completed so it
// can be assigned to a slice of the timed window.
type sample struct {
	at  time.Time
	lat time.Duration
}

type probe struct {
	at     sim.Time  // the heartbeat's virtual time, echoed back
	due    time.Time // when it was due (open loop) or written (closed loop)
	frames int64     // observations this echo acknowledges
}

type pendingBurst struct {
	burst
	due time.Time
}

// fifo hands sender-side expectations to the reader in order: the daemon
// answers one connection's probes and bursts in the order they were sent.
type fifo[T any] struct {
	mu   sync.Mutex
	q    []T
	head int
}

func (f *fifo[T]) push(v T) {
	f.mu.Lock()
	if f.head > 0 && f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	f.q = append(f.q, v)
	f.mu.Unlock()
}

func (f *fifo[T]) pop() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.head == len(f.q) {
		return v, false
	}
	v = f.q[f.head]
	f.head++
	return v, true
}

func (f *fifo[T]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.q) - f.head
}

// client is one device connection.
type client struct {
	id  string
	nc  net.Conn
	dec *wire.Decoder
	mix *mix

	window  int64 // credit window the Hello reply granted (0: no flow control)
	credits atomic.Int64
	probes  fifo[probe]
	bursts  fifo[pendingBurst]
	wake    chan struct{} // reader → sender: an echo or a grant arrived
	acked   atomic.Int64  // observations acknowledged by echoes
	readEnd chan struct{} // closed when the reader exits

	// Sender-owned until the senders are joined.
	sent       int64 // observations written
	injected   int64 // bursts written
	probesSent int64
	writeMax   time.Duration
	late       []sample
	sendErr    error

	// Reader-owned until readEnd is closed.
	acks, detects []sample
	lostProbes    int64  // probes skipped by a later echo
	unexplained   int64  // error frames no burst explains or with wrong values, echoes no probe explains
	refused       string // an ingest-detector error frame: the daemon refused the stream
	readErr       error
}

// dial connects to the daemon's socket, retrying until it listens, and
// performs the Hello exchange by hand: a JSON hello frame requesting the
// binary codec and dur, answered by the server's hello.
func dial(d *daemon, id string, dur wire.Durability, m *mix) (*client, error) {
	var nc net.Conn
	deadline := time.Now().Add(60 * time.Second)
	for {
		var err error
		if nc, err = net.Dial("unix", d.sock); err == nil {
			break
		}
		if d.exited() {
			return nil, fmt.Errorf("traderd exited before listening:\n%s", d.logTail())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", d.sock, err)
		}
		time.Sleep(time.Millisecond)
	}
	hello := wire.Message{Type: wire.TypeHello, SUO: id, Codec: wire.CodecBinary, Durability: dur}
	if _, err := nc.Write(appendFrameWith(nil, wire.JSON, hello)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	dec := wire.NewDecoder(bufio.NewReaderSize(nc, 16<<10))
	reply, err := dec.Decode()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello reply: %w", err)
	}
	switch {
	case reply.Type == wire.TypeError && reply.Error != nil:
		err = fmt.Errorf("hello rejected: %s", reply.Error.Detail)
	case reply.Type != wire.TypeHello:
		err = fmt.Errorf("hello reply has type %q", reply.Type)
	case reply.Codec != wire.CodecBinary:
		err = fmt.Errorf("daemon granted codec %q, want binary", reply.Codec)
	case dur != "" && reply.Durability != dur:
		err = fmt.Errorf("daemon granted durability %q, want %q", reply.Durability, dur)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	dec.SetCodec(wire.Binary)
	c := &client{id: id, nc: nc, dec: dec, mix: m, window: int64(reply.Credits),
		wake: make(chan struct{}, 1), readEnd: make(chan struct{})}
	c.credits.Store(c.window)
	go c.readLoop()
	return c, nil
}

// dialAll connects one client per mix and reports how long after the
// daemon's exec the first Hello reply arrived (traderd.boot_ms).
func dialAll(d *daemon, mixes []*mix, dur wire.Durability) ([]*client, time.Duration, error) {
	var clients []*client
	var boot time.Duration
	for i, m := range mixes {
		c, err := dial(d, m.id, dur, m)
		if err != nil {
			closeAll(clients)
			return nil, 0, err
		}
		if i == 0 {
			boot = time.Since(d.started)
		}
		clients = append(clients, c)
	}
	return clients, boot, nil
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.nc.Close()
		<-c.readEnd
	}
}

func (c *client) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// readLoop is the parked reader: it stamps echoes and error frames on
// arrival, matches them against what the sender announced, and keeps the
// credit balance.
func (c *client) readLoop() {
	defer close(c.readEnd)
	defer c.signal()
	for {
		msg, err := c.dec.Decode()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.readErr = err
			}
			return
		}
		now := time.Now()
		switch msg.Type {
		case wire.TypeHeartbeat:
			c.credits.Add(int64(msg.Credits))
			p, ok := c.probes.pop()
			for ok && p.at < msg.At {
				c.lostProbes++ // shed heartbeat: its frames are still accounted for below
				c.acked.Add(p.frames)
				p, ok = c.probes.pop()
			}
			if !ok || p.at != msg.At {
				c.unexplained++
				continue
			}
			c.acks = append(c.acks, sample{now, now.Sub(p.due)})
			c.acked.Add(p.frames)
			c.signal()
		case wire.TypeCredit:
			c.credits.Add(int64(msg.Credits))
			c.signal()
		case wire.TypeError:
			r := msg.Error
			if r == nil {
				c.unexplained++
				continue
			}
			if r.Detector == "ingest" {
				c.refused = r.Detail
				continue
			}
			b, ok := c.bursts.pop()
			if !ok || r.Detector != "comparator" || r.Expected != b.expected || r.Actual != b.actual {
				c.unexplained++
				continue
			}
			c.detects = append(c.detects, sample{now, now.Sub(b.due)})
		}
	}
}

// waitWake blocks until the reader signals or d elapses.
func (c *client) waitWake(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.wake:
		return true
	case <-t.C:
		return false
	}
}

// write sends buf with one write call and announces what it carries.
func (c *client) write(buf []byte, due time.Time, frames int64, bursts []burst, probeFrames int64) error {
	for _, b := range bursts {
		c.bursts.push(pendingBurst{b, due})
	}
	c.injected += int64(len(bursts))
	if probeFrames > 0 {
		c.probes.push(probe{at: c.mix.at, due: due, frames: probeFrames})
		c.probesSent++
	}
	t := time.Now()
	_, err := c.nc.Write(buf)
	if d := time.Since(t); d > c.writeMax {
		c.writeMax = d
	}
	c.sent += frames
	return err
}

// runClosed is the closed loop: a window of observations and a heartbeat,
// then nothing until the echo — the flush barrier — is back. The next
// window is encoded while the daemon works on this one.
func (c *client) runClosed(stop *atomic.Bool) {
	encode := func(buf []byte, bs []burst) ([]byte, []burst) {
		buf, bs = c.mix.appendObs(buf[:0], windowFrames, bs[:0])
		return appendFrame(buf, c.mix.heartbeat()), bs
	}
	buf, bs := encode(nil, nil)
	for !stop.Load() {
		for c.window > 0 && c.credits.Load() < windowFrames {
			// Honour the credit window: never reached in practice, because
			// every echo restores the whole window.
			if !c.waitWake(echoTimeout) {
				c.sendErr = errors.New("no credit grant within the echo timeout")
				return
			}
		}
		c.credits.Add(-windowFrames)
		if err := c.write(buf, time.Now(), windowFrames, bs, windowFrames); err != nil {
			c.sendErr = err
			return
		}
		buf, bs = encode(buf, bs)
		for c.acked.Load() < c.sent {
			if !c.waitWake(echoTimeout) {
				c.sendErr = errors.New("no heartbeat echo within the echo timeout")
				return
			}
			if c.readDone() {
				c.sendErr = errors.New("connection closed by the daemon")
				return
			}
		}
	}
}

func (c *client) readDone() bool {
	select {
	case <-c.readEnd:
		return true
	default:
		return false
	}
}

// napUntil sleeps in the kernel until t, or returns at once when t has
// passed.
func napUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// runPaced is the open loop: tickFrames observations are due every tick,
// whatever the daemon does, with a heartbeat probe on every second tick.
// Every latency runs from the instant the tick was due. When ticks > 0 the
// loop ends after that many ticks instead of on stop.
func (c *client) runPaced(t0 time.Time, tickFrames int, ticks int, stop *atomic.Bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Best effort: with the default slack the pacer only runs later, and
	// loadgen.late_p50_ms says so.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	var buf []byte
	var bs []burst
	sinceProbe := int64(0)
	for k := 0; !stop.Load() && (ticks == 0 || k < ticks); k++ {
		due := t0.Add(time.Duration(k) * tick)
		// The tick is encoded just before it is due, not right after the last
		// one was written: that is when the daemon needs the cores.
		napUntil(due.Add(-spinWindow))
		buf, bs = c.mix.appendObs(buf[:0], tickFrames, bs[:0])
		sinceProbe += int64(tickFrames)
		probeFrames := int64(0)
		if k%probeEveryTicks == 0 {
			buf = appendFrame(buf, c.mix.heartbeat())
			probeFrames, sinceProbe = sinceProbe, 0
		}
		for time.Now().Before(due) {
			// This goroutine owns its OS thread and the process has Ps to
			// spare (startSenders), so the wait starves nobody.
		}
		now := time.Now()
		c.late = append(c.late, sample{now, now.Sub(due)})
		if err := c.write(buf, due, int64(tickFrames), bs, probeFrames); err != nil {
			c.sendErr = err
			return
		}
	}
	// Drain: one last heartbeat acknowledges everything still in flight.
	if sinceProbe > 0 {
		if err := c.write(appendFrame(buf[:0], c.mix.heartbeat()), time.Now(), 0, nil, sinceProbe); err != nil {
			c.sendErr = err
		}
	}
}

// drain waits until every written observation is acknowledged.
func (c *client) drain() {
	deadline := time.Now().Add(echoTimeout)
	for c.acked.Load() < c.sent && c.sendErr == nil && !c.readDone() {
		if time.Now().After(deadline) {
			c.sendErr = errors.New("no heartbeat echo within the echo timeout")
			return
		}
		c.waitWake(10 * time.Millisecond)
	}
}

// reading is one instant of the sampler: wall clock, observations
// acknowledged so far, and both processes' CPU time so far.
type reading struct {
	at        time.Time
	acked     int64
	daemonCPU float64
	selfCPU   float64
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func takeReading(d *daemon, clients []*client) (reading, error) {
	cpu, err := d.cpuSeconds()
	r := reading{at: time.Now(), daemonCPU: cpu, selfCPU: selfCPUSeconds()}
	for _, c := range clients {
		r.acked += c.acked.Load()
	}
	return r, err
}

// startSenders starts one sender goroutine per client — paced (tickFrames
// per tick, for ticks ticks or until stop when ticks is 0) or closed loop —
// and returns the instant the first tick is due and a function that waits for
// the senders to return and for every written observation to be
// acknowledged.
//
// While senders run the process has more Ps than nproc: a pacer blocked in
// nanosleep keeps its P until sysmon takes it back, and with every P held
// that way nobody polls the network, so the readers stamped echoes up to a
// tick late (ack_p50_ms read 0.9 ms for a 0.4 ms answer). With Ps to spare a
// thread always waits in the poller. Connection i's ticks lag by i/len of a
// tick so the senders do not all contend for the daemon at one instant.
func startSenders(clients []*client, paced bool, tickFrames, ticks int, stop *atomic.Bool) (t0 time.Time, wait func()) {
	procs := runtime.GOMAXPROCS(2*len(clients) + 2)
	var wg sync.WaitGroup
	t0 = time.Now().Add(2 * tick)
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if paced {
				lag := tick * time.Duration(i) / time.Duration(len(clients))
				c.runPaced(t0.Add(lag), tickFrames, ticks, stop)
			} else {
				c.runClosed(stop)
			}
		}()
	}
	return t0, func() {
		wg.Wait()
		for _, c := range clients {
			c.drain()
		}
		runtime.GOMAXPROCS(procs)
	}
}

// drive runs the senders for warm + seconds and reads the sampler at the
// end of the warm-up and of each slice. It returns slices+1 readings: the
// timed window is readings[0]..readings[slices].
func drive(d *daemon, clients []*client, paced bool, tickFrames int, warm, window time.Duration, slices int) ([]reading, error) {
	var stop atomic.Bool
	t0, wait := startSenders(clients, paced, tickFrames, 0, &stop)
	readings := make([]reading, 0, slices+1)
	var err error
	for i := 0; i <= slices && err == nil; i++ {
		next := t0.Add(warm + window*time.Duration(i)/time.Duration(slices))
		time.Sleep(time.Until(next))
		var r reading
		r, err = takeReading(d, clients)
		readings = append(readings, r)
	}
	stop.Store(true)
	wait()
	if err != nil {
		return nil, fmt.Errorf("reading the daemon's CPU time: %w", err)
	}
	return readings, nil
}
