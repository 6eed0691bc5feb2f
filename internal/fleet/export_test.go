package fleet

import "trader/internal/wire"

// CaptureDevice snapshots one device's monitor state as a PlaneDevice
// checkpoint, captured on the device's own shard goroutine: every command
// submitted for the shard before the call — including in-flight dispatches —
// is processed first, so the snapshot is a consistent point in the device's
// monitored lifetime. The device keeps running; see HandoffDevice for the
// capture-and-release used by failover adoption.
func (p *Pool) CaptureDevice(id string) (*wire.Checkpoint, error) {
	return p.captureDevice(id, false)
}
