package recovery

// PendingFor returns the number of queued messages for a unit.
func (cm *CommManager) PendingFor(unit string) int { return len(cm.queues[unit]) }
