package daemon

import "trader/internal/journal"

// AddRider has Boot's journal pass feed p beside the pool and the planes.
func (d *Daemon) AddRider(p journal.Plane) { d.riders = append(d.riders, p) }
