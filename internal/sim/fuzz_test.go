package sim

import (
	"math"
	"slices"
	"testing"
	"time"
)

// queue is the surface FuzzEventOrder drives: the Simulator, or the
// reference that sorts its pending events by (time, insertion order).
type queue interface {
	Now() time.Duration
	at(t time.Duration, arg bool, fn func()) (stop func() bool)
	RunUntil(horizon time.Duration)
	Run()
	Stop()
	Pending() int
}

// simQueue schedules through At, or through AtArg with the closure as the
// argument. It checks the queue's invariants (stored) at each Pending,
// which drive reads after every top-level step.
type simQueue struct {
	*Simulator
	t testing.TB
}

func (q simQueue) at(t time.Duration, arg bool, fn func()) func() bool {
	if arg {
		return q.AtArg(t, func(a any) { a.(func())() }, fn).Stop
	}
	return q.At(t, fn).Stop
}

func (q simQueue) Pending() int {
	stored(q.t, q.Simulator)
	return q.Simulator.Pending()
}

// refQueue is the reference: a flat list of pending events, the next one
// found by a linear scan for the least (time, insertion order).
type refQueue struct {
	now     time.Duration
	pending []*refEvent
	seq     uint64
	stopped bool
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (r *refQueue) Now() time.Duration { return r.now }
func (r *refQueue) Pending() int       { return len(r.pending) }
func (r *refQueue) Stop()              { r.stopped = true }
func (r *refQueue) Run()               { r.run(math.MaxInt64) }

func (r *refQueue) RunUntil(horizon time.Duration) {
	r.run(horizon)
	r.now = max(r.now, horizon)
}

func (r *refQueue) at(t time.Duration, _ bool, fn func()) func() bool {
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, e)
	return func() bool {
		i := slices.Index(r.pending, e)
		if i < 0 {
			return false
		}
		r.pending = slices.Delete(r.pending, i, i+1)
		return true
	}
}

func (r *refQueue) run(horizon time.Duration) {
	for !r.stopped && len(r.pending) > 0 {
		i := 0
		for j, e := range r.pending {
			if best := r.pending[i]; e.at < best.at || e.at == best.at && e.seq < best.seq {
				i = j
			}
		}
		e := r.pending[i]
		if e.at > horizon {
			return
		}
		r.pending = slices.Delete(r.pending, i, i+1)
		r.now = e.at
		e.fn()
	}
}

// window is the calendar's span; events scheduled further ahead wait in
// the far heap.
const window = time.Duration(nBuckets << bucketShift)

// drive runs the program in data against q and returns its log: each
// fired event's id and time, each Stop's result and the pending count
// after every top-level step. Two bytes make one step: an opcode and an
// operand. Top-level steps schedule, cancel, or run to a horizon; every
// fired event reads the next step too, so events schedule and cancel
// from inside events.
func drive(q queue, data []byte) []int64 {
	const maxEvents = 400
	var (
		log    []int64
		timers []func() bool
		spawn  func(t time.Duration, arg bool)
		step   func(inEvent bool)
	)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	spawn = func(t time.Duration, arg bool) {
		if len(timers) >= maxEvents {
			return
		}
		id := int64(len(timers))
		timers = append(timers, q.at(t, arg, func() {
			log = append(log, id, int64(q.Now()))
			step(true)
		}))
	}
	stop := func(i int) {
		ok := int64(0)
		if timers[i]() {
			ok = 1
		}
		log = append(log, -1, int64(i), ok)
	}
	step = func(inEvent bool) {
		op, x := next(), next()
		now, arg := q.Now(), op&0x10 != 0
		switch op % 10 {
		case 0: // zero delay
			spawn(now, arg)
		case 1: // a few fixed delays: exact-time ties
			spawn(now+time.Duration(x%4)*100*time.Microsecond, arg)
		case 2: // spread over the first buckets
			spawn(now+time.Duration(x)*time.Microsecond, arg)
		case 3: // spread over the window
			spawn(now+time.Duration(x)*time.Duration(window/256), arg)
		case 4: // at the window's edge
			spawn(now+window-2+time.Duration(x%4), arg)
		case 5: // beyond the window
			spawn(now+window+time.Duration(x)*time.Millisecond, arg)
		case 6: // cancel one
			if len(timers) > 0 {
				stop(int(x) % len(timers))
			}
		case 7: // cancel every third: enough to compact
			for i := int(x % 3); i < len(timers); i += 3 {
				stop(i)
			}
		case 8: // halt the run from inside an event
			if inEvent && x%8 == 0 {
				q.Stop()
			} else {
				spawn(now+time.Duration(x%4)*100*time.Microsecond, arg)
				spawn(now+time.Duration(x)*time.Duration(window/64), !arg)
			}
		case 9: // from the top level: run to a horizon, often past every
			// event, or drain the queue, cancelled events last included
			switch {
			case inEvent:
				spawn(now+time.Duration(x)*time.Duration(window/16), arg)
			case x%8 == 0:
				q.Run()
			default:
				q.RunUntil(now + time.Duration(x)*time.Duration(window/32))
			}
		}
	}
	for len(data) > 0 {
		step(false)
		log = append(log, -2, int64(q.Pending()), int64(q.Now()))
	}
	q.Run()
	return append(log, -2, int64(q.Pending()), int64(q.Now()))
}

// FuzzEventOrder holds the calendar queue to the reference: the same
// program must fire the same events at the same times, in the same order,
// with the same cancellations and pending counts.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 1, 0x11, 1, 2, 200, 3, 100, 5, 3, 4, 1})
	f.Add([]byte{5, 0, 5, 9, 4, 0, 4, 3, 3, 255, 9, 40, 0, 0, 9, 255, 1, 2})
	f.Add([]byte{3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 7, 0, 6, 1, 7, 1, 9, 10, 8, 0, 8, 8})
	f.Add([]byte{1, 0, 1, 0, 0x11, 0, 1, 1, 8, 3, 8, 0, 9, 1, 2, 7, 7, 2, 9, 0})
	seq := make([]byte, 600)
	for i := range seq {
		seq[i] = byte(i*37 + i/7)
	}
	f.Add(seq)
	// Sparse programs, where the window jumps over empty buckets: events
	// hundreds of buckets apart, scheduling more from inside them;
	f.Add([]byte{3, 100, 3, 200, 0x13, 30, 3, 250, 5, 7, 9, 0, 3, 180, 3, 60, 0x13, 220, 2, 9, 3, 140, 1, 2, 3, 255, 0, 0})
	// a calendar holding only far events, run to a horizon short of them
	// and then drained;
	f.Add([]byte{5, 0, 5, 40, 0x15, 200, 5, 255, 9, 8, 9, 0, 5, 90, 3, 220, 5, 3, 0, 0})
	// RunUntil horizons inside empty stretches, each followed by events at
	// and just after the clock it leaves.
	f.Add([]byte{3, 200, 9, 2, 0, 0, 1, 3, 9, 3, 0x10, 0, 2, 100, 3, 250, 9, 5, 1, 1, 9, 29, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(1)
		got := drive(simQueue{s, t}, data)
		want := drive(&refQueue{}, data)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("logs differ at %d of %d/%d: calendar %v, reference %v",
				i, len(got), len(want), got[i:min(i+12, len(got))], want[i:min(i+12, len(want))])
		}
		stored(t, s)
	})
}
