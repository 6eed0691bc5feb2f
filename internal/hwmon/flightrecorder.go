// Package hwmon models the on-chip debug and trace infrastructure of Sect.
// 4.1: the trace buffer that keeps the last events of a SUO so the context
// leading up to an error stays available. In the paper it exploits
// "mechanisms already available in hardware"; here it records the
// simulated SoC's event bus.
package hwmon

import (
	"sync"

	"trader/internal/event"
)

// FlightRecorder is the software face of the on-chip trace buffer (Sect.
// 4.1): it continuously records the last N events of a SUO into a ring
// buffer so that, when a detector fires, the events *leading up to* the
// error are available for diagnosis — the observation data program-spectra
// and log-based analyses start from.
//
// A FlightRecorder is safe for concurrent use: fleet buses deliver events
// on whichever goroutine publishes, and a snapshot may be captured while
// recording continues, so Record and Capture may race freely without
// tearing the window.
type FlightRecorder struct {
	mu  sync.Mutex
	log *event.Log
}

// NewFlightRecorder creates a recorder retaining the last capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{log: event.NewLog(capacity)}
}

// Record appends one event to the window. It is a bus handler
// (bus.Subscribe("", fr.Record)) and can be fed directly, e.g. by a device
// client that sits between its bus and the wire.
func (fr *FlightRecorder) Record(e event.Event) {
	fr.mu.Lock()
	fr.log.Append(e)
	fr.mu.Unlock()
}

// Capture returns the retained window oldest-first — call it from an error
// handler to preserve the pre-error context.
func (fr *FlightRecorder) Capture() []event.Event {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.log.Snapshot()
}

// CaptureMatching returns only the retained events satisfying pred.
func (fr *FlightRecorder) CaptureMatching(pred func(event.Event) bool) []event.Event {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.log.Filter(pred)
}

// Dropped reports how many events fell off the back of the window.
func (fr *FlightRecorder) Dropped() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.log.Dropped
}

// Len reports the number of retained events.
func (fr *FlightRecorder) Len() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.log.Len()
}
