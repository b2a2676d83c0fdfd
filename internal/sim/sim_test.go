package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/obs"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3*time.Millisecond, func() { order = append(order, 3) })
	s.At(1*time.Millisecond, func() { order = append(order, 1) })
	s.At(2*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v", at)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatal("negative delay should fire immediately at t=0")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.At(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopZero(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero timer Stop should be false")
	}
}

func TestTimerStopAfterFireIsFalse(t *testing.T) {
	s := New(1)
	tm := s.At(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

// A Timer held across its event record's recycling must not cancel the
// record's next life.
func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	s := New(1)
	stale := s.At(time.Millisecond, func() {})
	s.Run() // fires; record returns to the free list
	fired := false
	s.At(2*time.Millisecond, func() { fired = true }) // reuses the record
	if stale.Stop() {
		t.Fatal("stale Stop should be a no-op")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event was cancelled through a stale handle")
	}
}

// TestDeadEventCompaction cancels 900 of 1 000 events spread over a
// second, so corpses sit both in the calendar and in the far heap: once
// they outnumber the live events the queue drops them, wherever they are.
func TestDeadEventCompaction(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 0, 1000)
	for i := 0; i < 1000; i++ {
		timers = append(timers, s.At(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for _, tm := range timers[:900] {
		tm.Stop()
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", s.Pending())
	}
	n := stored(t, s)
	if n > 2*s.Pending() {
		t.Fatalf("queue stores %d entries for %d live events; compaction missing", n, s.Pending())
	}
	fired := 0
	s.At(1, func() { fired++ }) // schedule on the compacted queue still works
	s.Run()
	if fired != 1 || s.Pending() != 0 || stored(t, s) != 0 {
		t.Fatalf("post-compaction run: fired=%d pending=%d stored=%d", fired, s.Pending(), stored(t, s))
	}
}

// stored counts the entries the queue holds, dead ones included, by
// walking every calendar bucket and the far heap, and checks the
// calendar's own count, each bucket's order and window, and its
// occupancy bit against it.
func stored(t testing.TB, s *Simulator) int {
	t.Helper()
	n := 0
	for i := range s.cal {
		b := &s.cal[i]
		var last *event
		for e := b.head; e != nil; e = e.next {
			if k := int64(e.at) >> bucketShift; k&(nBuckets-1) != int64(i) || k < s.cur || k-s.cur >= nBuckets {
				t.Fatalf("event at %v (bucket %d) filed in slot %d with the window at bucket %d", e.at, k, i, s.cur)
			}
			if last != nil && !last.before(e) {
				t.Fatalf("slot %d out of order: (%v, %d) before (%v, %d)", i, last.at, last.seq, e.at, e.seq)
			}
			last = e
			n++
		}
		if b.tail != last {
			t.Fatalf("slot %d: tail is not the last event", i)
		}
		if set := s.occ[i>>6]&(1<<(i&63)) != 0; set != (b.head != nil) {
			t.Fatalf("slot %d: occupancy bit %t, bucket non-empty %t", i, set, b.head != nil)
		}
	}
	if n != s.inCal {
		t.Fatalf("calendar holds %d events, counts %d", n, s.inCal)
	}
	for _, e := range s.far {
		if int64(e.at)>>bucketShift-s.cur < nBuckets {
			t.Fatalf("far event at %v lies inside the window at bucket %d", e.at, s.cur)
		}
	}
	return n + len(s.far)
}

// Steady-state scheduling and firing must not allocate: event records are
// recycled through the free list and Timer handles are values. That holds
// for a closure (At stores it as the argument of a shared function), for
// a bound function with a pointer argument (AtArg), for cancelling an
// argument-carrying event, and for an event past the calendar's window,
// which waits in the far heap and moves into the calendar to fire.
func TestScheduleFireNoAllocs(t *testing.T) {
	s := New(1)
	fn := func() {}
	type record struct{ n int }
	rec := &record{}
	argFn := func(a any) { a.(*record).n++ }
	for name, op := range map[string]func(){
		"After": func() {
			s.After(time.Microsecond, fn)
			s.Run()
		},
		"AtArg": func() {
			s.AtArg(s.Now()+time.Microsecond, argFn, rec)
			s.Run()
		},
		"AfterArg+Stop": func() {
			tm := s.AfterArg(time.Microsecond, argFn, rec)
			s.AfterArg(2*time.Microsecond, argFn, rec)
			tm.Stop()
			s.Run()
		},
		"AfterArg beyond the window": func() {
			s.AfterArg(time.Second, argFn, rec)
			s.Run()
		},
	} {
		op() // warm the free list and heap capacity
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s: steady-state schedule/fire allocates %.1f/op, want 0", name, allocs)
		}
	}
	// Each argument case ran once to warm up, plus AllocsPerRun's own
	// warm-up run and its 1000 measured runs.
	if want := 3 * 1002; rec.n != want {
		t.Fatalf("argument events fired %d times, want %d", rec.n, want)
	}
}

// AtArg passes its argument to the bound function, and events of both
// shapes share one (time, insertion) order.
func TestArgEventsShareOrder(t *testing.T) {
	s := New(1)
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	s.AtArg(2*time.Millisecond, push, 3)
	s.At(time.Millisecond, func() { got = append(got, 1) })
	s.AtArg(time.Millisecond, push, 2)
	s.At(2*time.Millisecond, func() { got = append(got, 4) })
	s.AfterArg(-time.Millisecond, push, 0) // clamped to now
	s.Run()
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []time.Duration
	tk := s.Every(0, 10*time.Millisecond, func() {
		times = append(times, s.Now())
	})
	s.At(35*time.Millisecond, func() { tk.Stop() })
	s.Run()
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v", times)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(0, time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("n = %d", n)
	}
}

func TestEveryRequiresPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Every(0, 0, func() {})
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	fired := []time.Duration{}
	s.At(time.Second, func() { fired = append(fired, s.Now()) })
	s.At(3*time.Second, func() { fired = append(fired, s.Now()) })
	s.RunUntil(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want horizon", s.Now())
	}
	// Remaining event still pending.
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(0, time.Millisecond, func() {
		n++
		if n == 5 {
			s.Stop()
		}
	})
	s.Run()
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(99)
		var vals []int64
		r := s.NewStream()
		s.Every(0, time.Millisecond, func() {
			vals = append(vals, r.Int63n(1000))
			if len(vals) >= 50 {
				s.Stop()
			}
		})
		s.Run()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNewStreamIndependence(t *testing.T) {
	s := New(5)
	r1, r2 := s.NewStream(), s.NewStream()
	same := true
	for i := 0; i < 10; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("streams should differ")
	}
}

// Property: any batch of randomly-timed events executes in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := New(3)
		var got []time.Duration
		for _, d := range delaysMs {
			at := time.Duration(d) * time.Millisecond
			s.At(at, func() { got = append(got, s.Now()) })
		}
		s.Run()
		want := make([]time.Duration, len(delaysMs))
		for i, d := range delaysMs {
			want[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelled timers never fire regardless of interleaving.
func TestCancelledNeverFiresProperty(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := New(4)
		firedCancelled := false
		for i, d := range delays {
			cancel := i < len(cancelMask) && cancelMask[i]
			tm := s.At(time.Duration(d)*time.Millisecond, func() {
				if cancel {
					firedCancelled = true
				}
			})
			if cancel {
				tm.Stop()
			}
		}
		s.Run()
		return !firedCancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCountsLiveOnly(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {})
	tm := s.At(2*time.Second, func() {})
	tm.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

// TestLabeledEnginesDoNotInterleaveCounts is the obs-namespacing race
// check: two engines advancing concurrently, each labeled, must record
// into disjoint series with exact per-engine totals (run under -race in
// CI).
func TestLabeledEnginesDoNotInterleaveCounts(t *testing.T) {
	obs.ResetAll()
	obs.Enable()
	defer obs.Disable()
	const perEngine = 5000
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		s := New(int64(i + 1))
		s.Label(fmt.Sprintf("race%d", i))
		var n int
		s.Every(0, time.Millisecond, func() {
			n++
			if n >= perEngine {
				s.Stop()
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run()
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		c := obs.NewCounter(fmt.Sprintf("sim.race%d.events_fired", i))
		if got := c.Value(); got != perEngine {
			t.Fatalf("engine %d recorded %d events, want exactly %d (cross-engine interleaving?)",
				i, got, perEngine)
		}
	}
}
