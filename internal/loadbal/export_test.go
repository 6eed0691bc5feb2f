package loadbal

// Stop halts balancing.
func (b *Balancer) Stop() {
	if b.rep != nil {
		b.rep.Stop()
		b.rep = nil
	}
}
