package sim

import "math"

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && !e.dead && e.index >= 0 }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.pq) }

// Stop halts the kernel: no further events fire. Pending events remain
// queued so tests can inspect them.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func (s *Series) StdDev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}
