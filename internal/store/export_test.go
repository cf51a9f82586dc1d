package store

// Queued reports how many operations are queued behind the calls in
// flight, so an external test can wait for "these k requests are
// pending" as an event instead of sleeping.
func (d *CoalescingDevice) Queued() int {
	n := 0
	for _, q := range []*coalesceQueue{&d.reads, &d.writes} {
		q.mu.Lock()
		n += len(q.pending)
		q.mu.Unlock()
	}
	return n
}
