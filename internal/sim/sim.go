// Package sim implements the deterministic discrete-event engine every
// Athena subsystem runs on.
//
// A Simulator owns a virtual clock and a priority queue of scheduled
// events. Components schedule closures at absolute virtual times (or after
// relative delays), or, on per-packet paths, a function bound once plus
// the packet it carries (AtArg, AfterArg); Run drains the queue in time
// order. Ties are broken by insertion order, so a simulation with a fixed
// seed is fully reproducible — a property the test suite and the Athena
// correlator's ground-truth checks depend on.
//
// The queue is a calendar: a ring of fixed-width time buckets covering a
// window that starts at the current time, each bucket a list of events
// kept in (time, insertion) order, threaded through the event records
// themselves. Scheduling into the window appends to (or walks) one
// short list, and the next event is the head of the first non-empty
// bucket, so neither side sifts. A bitmap of the non-empty buckets lets
// the window jump over empty stretches instead of stepping through them.
// Events beyond the window wait in a 4-ary min-heap and move into the
// calendar as the window reaches them. Every
// event has one shape, fn(arg): At stores its closure as the argument of a
// shared trampoline. Steady-state schedule/fire cycles allocate nothing
// because fired and cancelled records return to a free list. Cancelled
// timers are compacted out of the queue once they outnumber the live
// events, so a workload that schedules and cancels aggressively (jitter
// buffers, tickers racing simulation end) cannot grow the queue with
// corpses.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"athena/internal/obs"
)

// Engine metrics, aggregated across every Simulator in the process (the
// runner pool fans many out concurrently). All record calls are no-ops
// until obs.Enable, and none of them touch simulation RNG streams or
// event ordering, so instrumentation can never change a run's digest.
var (
	metEventsFired = obs.NewCounter("sim.events_fired")
	metCompactions = obs.NewCounter("sim.compactions")
	metHeapDepth   = obs.NewGauge("sim.heap_depth_max")
)

// event is a scheduled callback: fn applied to arg at (at, seq). Records
// are pooled: gen increments each time the record is recycled so stale
// Timer handles cannot act on the record's next life.
type event struct {
	fn   func(any)
	arg  any
	at   time.Duration
	seq  uint64 // insertion order, breaks ties deterministically
	next *event // the next event in the same calendar bucket
	gen  uint32
	dead bool
}

// before orders events by (time, insertion order).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Calendar geometry: nBuckets buckets of 2^bucketShift ns each, a
// 134 ms window. 98 % of the events of a loaded cell are scheduled less
// than 67 ms ahead (the 2.5 ms UL slot, 20 ms audio, 50 ms feedback and
// packet hops); the rest wait in the far heap.
const (
	bucketShift = 17
	nBuckets    = 1 << 10
)

// bucket is one calendar slot: a list of events in (time, insertion)
// order.
type bucket struct {
	head, tail *event
}

// insert links e, whose next is nil, into the list at its (time,
// insertion) position. The tail is checked first: an event that sorts
// after every other in its bucket, same-time ties included, is the most
// common case.
func (b *bucket) insert(e *event) {
	switch {
	case b.head == nil:
		b.head, b.tail = e, e
	case !e.before(b.tail):
		b.tail.next = e
		b.tail = e
	case e.before(b.head):
		e.next = b.head
		b.head = e
	default:
		p := b.head
		for !e.before(p.next) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
}

// call is the event function of At: its argument is the func() to run.
// A func value is pointer-shaped, so storing it in arg does not allocate.
func call(f any) { f.(func())() }

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid: Stop on it reports false.
type Timer struct {
	sim *Simulator
	e   *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// cancellation prevented a pending execution.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil || e.gen != t.gen || e.dead {
		return false
	}
	e.dead = true
	t.sim.live--
	t.sim.maybeCompact()
	return true
}

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; create one with New.
type Simulator struct {
	now time.Duration
	// cal holds the events of buckets cur .. cur+nBuckets-1 (absolute
	// bucket numbers, time >> bucketShift) at index bucket & (nBuckets-1).
	// Whenever code can schedule (inside an event or between runs), cur
	// is at most the bucket of now, so whatever is scheduled lands at or
	// after it.
	cal [nBuckets]bucket
	// occ has bit i set exactly when cal[i] holds an event.
	occ     [nBuckets / 64]uint64
	cur     int64
	inCal   int      // events in cal, dead ones included
	far     []*event // events past the window: 4-ary min-heap by before
	live    int      // queued events not marked dead
	free    []*event // recycled event records
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// Engine metrics. New points these at the process-wide aggregates;
	// Label swaps in per-engine instances so concurrently advancing
	// engines (one per shard) can be told apart in snapshots.
	metFired   *obs.Counter
	metCompact *obs.Counter
	metDepth   *obs.Gauge
}

// New creates a Simulator whose random streams derive from seed.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:        rand.New(rand.NewSource(seed)),
		metFired:   metEventsFired,
		metCompact: metCompactions,
		metDepth:   metHeapDepth,
	}
}

// Label rehomes the engine's metrics into a per-instance namespace —
// sim.<name>.events_fired, sim.<name>.compactions and
// sim.<name>.heap_depth_max — so several engines advancing concurrently
// (the sharded multi-cell run) record into disjoint series instead of
// interleaving counts in the shared ones. Call it before scheduling
// work; the record-path cost is unchanged (one pointer indirection
// either way), and like every obs hook it cannot affect event ordering.
func (s *Simulator) Label(name string) {
	s.metFired = obs.NewCounter("sim." + name + ".events_fired")
	s.metCompact = obs.NewCounter("sim." + name + ".compactions")
	s.metDepth = obs.NewGauge("sim." + name + ".heap_depth_max")
}

// Now reports the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. Components
// that need independent streams should use NewStream.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// NewStream derives an independent deterministic random stream. Each call
// produces a distinct stream; the sequence of calls must itself be
// deterministic for reproducibility.
func (s *Simulator) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(s.rng.Int63()))
}

// alloc takes an event record from the free list (or the heap allocator
// when the list is empty) and initializes it.
func (s *Simulator) alloc(fn func(any), arg any) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	e.fn = fn
	e.arg = arg
	e.dead = false
	return e
}

// release recycles a record that has left the queue. The generation
// bump invalidates any outstanding Timer handles to it.
func (s *Simulator) release(e *event) {
	e.fn = nil
	e.arg = nil
	e.next = nil
	e.gen++
	e.dead = false
	s.free = append(s.free, e)
}

// file links e into the calendar bucket b (an absolute bucket number
// inside the window) and marks the bucket occupied.
func (s *Simulator) file(b int64, e *event) {
	i := b & (nBuckets - 1)
	s.cal[i].insert(e)
	s.occ[i>>6] |= 1 << (i & 63)
	s.inCal++
}

// push queues e at (at, next seq): into its calendar bucket when that lies
// inside the window, into the far heap otherwise.
func (s *Simulator) push(at time.Duration, e *event) {
	e.at, e.seq = at, s.seq
	s.seq++
	b := int64(at) >> bucketShift
	if b-s.cur < nBuckets {
		s.file(b, e)
	} else {
		s.far = append(s.far, e)
		s.siftUp(len(s.far) - 1)
	}
	s.metDepth.Max(int64(s.inCal + len(s.far)))
}

// head returns the calendar bucket whose first event is the earliest
// queued one, provided that event is due by horizon; otherwise nil. It
// advances the window to the next occupied bucket, but never past the
// bucket of horizon, and moves far events into the calendar as the window
// reaches them. The jump skips no far event: each lies at least nBuckets
// past cur, so past every bucket the window can jump to.
func (s *Simulator) head(horizon time.Duration) *bucket {
	for {
		b := &s.cal[s.cur&(nBuckets-1)]
		if b.head != nil {
			if b.head.at > horizon {
				return nil
			}
			return b
		}
		switch {
		case s.inCal > 0:
			hb := int64(horizon) >> bucketShift
			if s.cur >= hb {
				return nil
			}
			s.cur = min(s.nextOccupied(), hb)
		case len(s.far) > 0 && s.far[0].at <= horizon:
			s.cur = int64(s.far[0].at) >> bucketShift
		default:
			return nil
		}
		s.refill()
	}
}

// nextOccupied returns the absolute number of the first occupied bucket
// after cur. The calendar must hold an event and cur's bucket none; a
// bitmap that marks no bucket then is a bug, and panics rather than spin.
func (s *Simulator) nextOccupied() int64 {
	i := int(s.cur+1) & (nBuckets - 1)
	w := i >> 6
	m := s.occ[w] >> (i & 63) << (i & 63)
	for n := 0; m == 0; n++ {
		if n == len(s.occ) {
			panic("sim: the calendar holds events but marks no bucket occupied")
		}
		w = (w + 1) & (len(s.occ) - 1)
		m = s.occ[w]
	}
	j := w<<6 + bits.TrailingZeros64(m)
	return s.cur + 1 + int64((j-i)&(nBuckets-1))
}

// refill moves the far events the window now covers into the calendar.
func (s *Simulator) refill() {
	for len(s.far) > 0 {
		e := s.far[0]
		b := int64(e.at) >> bucketShift
		if b-s.cur >= nBuckets {
			return
		}
		s.popFar()
		s.file(b, e)
	}
}

// vacate marks bucket b (an absolute bucket number) empty.
func (s *Simulator) vacate(b int64) {
	i := b & (nBuckets - 1)
	s.occ[i>>6] &^= 1 << (i & 63)
}

// popFar removes the far heap's earliest event.
func (s *Simulator) popFar() {
	h := s.far
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	s.far = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Simulator) siftUp(i int) {
	h := s.far
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (s *Simulator) siftDown(i int) {
	h := s.far
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// maybeCompact drops the dead events from the calendar and the far heap
// once they exceed half the queue, bounding both memory and the pop-side
// work of skipping corpses.
func (s *Simulator) maybeCompact() {
	n := s.inCal + len(s.far)
	if n < 32 || (n-s.live)*2 <= n {
		return
	}
	// The calendar's lists are filtered in place: what survives keeps
	// its order, so each kept event goes to its list's tail.
	for i, left := s.cur, s.inCal; left > 0; i++ {
		b := &s.cal[i&(nBuckets-1)]
		e := b.head
		*b = bucket{}
		for e != nil {
			next := e.next
			e.next = nil
			left--
			if e.dead {
				s.release(e)
				s.inCal--
			} else {
				b.insert(e)
			}
			e = next
		}
		if b.head == nil {
			s.vacate(i)
		}
	}
	h := s.far
	j := 0
	for _, e := range h {
		if e.dead {
			s.release(e)
		} else {
			h[j] = e
			j++
		}
	}
	clear(h[j:])
	s.far = h[:j]
	s.metCompact.Inc()
	if j == 0 {
		return
	}
	for i := (j - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a causality bug in the caller.
func (s *Simulator) At(t time.Duration, fn func()) Timer {
	return s.AtArg(t, call, fn)
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	return s.AfterArg(d, call, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. It is At for the
// per-packet paths: a component binds fn once (a method value) and passes
// the packet or record as arg, so scheduling a hop allocates nothing when
// arg is pointer-shaped. Scheduling in the past panics.
func (s *Simulator) AtArg(t time.Duration, fn func(any), arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	e := s.alloc(fn, arg)
	s.push(t, e)
	s.live++
	return Timer{sim: s, e: e, gen: e.gen}
}

// AfterArg schedules fn(arg) d after the current time. Negative delays
// are clamped to zero.
func (s *Simulator) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	return s.AtArg(s.now+max(d, 0), fn, arg)
}

// Every schedules fn at t, t+period, t+2*period, ... until the returned
// Ticker is stopped or the simulation ends.
func (s *Simulator) Every(start, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires positive period")
	}
	tk := &Ticker{sim: s, period: period, fn: fn}
	tk.fireFn = tk.fire // bound once so rescheduling does not allocate
	tk.timer = s.At(start, tk.fireFn)
	return tk
}

// Ticker repeatedly reschedules a callback.
type Ticker struct {
	sim     *Simulator
	period  time.Duration
	fn      func()
	fireFn  func()
	timer   Timer
	stopped bool
}

func (tk *Ticker) fire() {
	if tk.stopped {
		return
	}
	tk.fn()
	if tk.stopped { // fn may stop the ticker
		return
	}
	tk.timer = tk.sim.After(tk.period, tk.fireFn)
}

// Stop cancels future ticks.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}

// Stop halts Run after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// RunUntil executes events in time order until the queue is empty or the
// clock would pass horizon. The clock finishes at min(horizon, last event)
// and is advanced to horizon on return.
func (s *Simulator) RunUntil(horizon time.Duration) {
	s.run(horizon)
	if s.now < horizon {
		s.now = horizon
	}
}

// Run executes all events until the queue drains or Stop is called.
func (s *Simulator) Run() { s.run(math.MaxInt64) }

// run is the one dispatch loop: it fires events in (time, insertion)
// order until the queue drains, Stop is called, or the next event lies
// past horizon.
func (s *Simulator) run(horizon time.Duration) {
	for !s.stopped {
		b := s.head(horizon)
		if b == nil {
			if s.inCal+len(s.far) == 0 {
				// Cancelled events popped after the last fired one may
				// have carried the window past now; with nothing queued,
				// it restarts there.
				s.cur = int64(s.now) >> bucketShift
			}
			return
		}
		e := b.head
		if b.head = e.next; b.head == nil {
			b.tail = nil
			s.vacate(s.cur)
		}
		s.inCal--
		if e.dead {
			s.release(e)
			continue
		}
		s.now = e.at
		s.live--
		fn, arg := e.fn, e.arg
		s.release(e)
		s.metFired.Inc()
		fn(arg)
	}
}

// Pending reports the number of live scheduled events.
func (s *Simulator) Pending() int { return s.live }
