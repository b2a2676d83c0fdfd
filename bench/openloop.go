package main

import "time"

// schedule is the open loop's plan: batch k is due k intervals after
// the start and belongs to live-session slot k mod slots, as that slot's
// n-th batch. The plan is fixed before the first send and does not look
// at how the server is doing.
type schedule struct {
	slots    int
	interval time.Duration
}

func (s schedule) due(k int) time.Duration { return time.Duration(k) * s.interval }

func (s schedule) slot(k int) (slot, n int) { return k % s.slots, k / s.slots }

// fromDue is the open loop's accounting for one request: its latency
// runs from when it was due, not from when it was sent, so the wait a
// stall imposes on the requests queued behind it is counted; late is how
// far behind schedule the generator itself sent it.
func fromDue(due, sent, done time.Time) (latency, late time.Duration) {
	return done.Sub(due), sent.Sub(due)
}
