package session

import (
	"errors"
	"sync"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/packet"
	"athena/internal/telemetry"
)

// synthFeed builds a simple resolvable workload: n video packets on flow
// 1, each seen at the core 3 ms after sending, 10 ms apart. Returns the
// batch-equivalent Input for offline comparison.
func synthFeed(n int) core.Input {
	in := core.Input{}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		s := packet.Record{
			Point: packet.PointSender, Kind: packet.KindVideo,
			Flow: 1, Seq: uint32(i), Size: 1200, LocalTime: at,
		}
		c := s
		c.Point = packet.PointCore
		c.LocalTime = at + 3*time.Millisecond
		in.Sender = append(in.Sender, s)
		in.Core = append(in.Core, c)
	}
	return in
}

// synthFeedTB extends synthFeed with one TB per packet, so emitted views
// carry TB matches and Accumulate writes the per-cause totals map.
func synthFeedTB(n int) core.Input {
	in := synthFeed(n)
	in.SlotDuration = 500 * time.Microsecond
	for i := range in.Sender {
		in.TBs = append(in.TBs, telemetry.TBRecord{
			TBID: uint64(i + 1), UE: 1,
			At:  in.Sender[i].LocalTime + time.Millisecond,
			TBS: 1500, UsedBytes: in.Sender[i].Size,
			Grant: telemetry.GrantProactive,
		})
	}
	return in
}

// feedAll streams an input into a session in chunks of batchSize packets,
// advancing past each chunk, with a final drain advance.
func feedAll(t *testing.T, s *Session, in core.Input, batchSize int) {
	t.Helper()
	for i := 0; i < len(in.Sender); i += batchSize {
		j := i + batchSize
		if j > len(in.Sender) {
			j = len(in.Sender)
		}
		b := Batch{
			Sender:    in.Sender[i:j],
			Core:      in.Core[i:j],
			AdvanceTo: in.Sender[j-1].LocalTime,
		}
		if _, err := s.Feed(&b); err != nil {
			t.Fatalf("feed chunk %d: %v", i, err)
		}
	}
	last := in.Sender[len(in.Sender)-1].LocalTime
	if _, err := s.Feed(&Batch{AdvanceTo: last + 30*time.Second}); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSessionLifecycleAndDigest(t *testing.T) {
	reg := NewRegistry()
	s, err := reg.Create(Config{ID: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	in := synthFeed(200)
	feedAll(t, s, in, 7)

	st := s.Status()
	if st.Feed.Pending != 0 || st.Feed.Emitted != 200 {
		t.Fatalf("feed incomplete: %+v", st.Feed)
	}
	if want := core.Correlate(in).PacketsDigest(); st.Digest != want {
		t.Fatalf("session digest %s != offline %s", st.Digest, want)
	}
	if st.DigestViews != 200 {
		t.Fatalf("digest covers %d views", st.DigestViews)
	}

	final, err := reg.Close("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !final.Closed || final.Digest != st.Digest {
		t.Fatalf("close changed the digest: %+v", final)
	}
	if _, err := s.Feed(&Batch{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("feed after close: %v", err)
	}
	if _, ok := reg.Get("s1"); ok {
		t.Fatal("closed session still registered")
	}
}

func TestSessionCloseDrainsPending(t *testing.T) {
	reg := NewRegistry()
	s, _ := reg.Create(Config{ID: "drain"})
	in := synthFeed(50)
	// Feed without ever advancing: everything stays pending.
	if _, err := s.Feed(&Batch{Sender: in.Sender, Core: in.Core}); err != nil {
		t.Fatal(err)
	}
	if s.Status().Feed.Pending != 50 {
		t.Fatal("expected 50 pending")
	}
	st, err := reg.Close("drain")
	if err != nil {
		t.Fatal(err)
	}
	if st.Feed.Pending != 0 || st.Feed.Emitted != 50 {
		t.Fatalf("close did not drain: %+v", st.Feed)
	}
	if want := core.Correlate(in).PacketsDigest(); st.Digest != want {
		t.Fatal("drained digest diverges from offline")
	}
}

// A feeder that never advances the clock and stamps records with an
// absolute (epoch-like) capture clock must still be fully drained by
// close: the drain clock derives from the sender head, not just the
// Advance head.
func TestSessionCloseDrainsWithoutAdvance(t *testing.T) {
	reg := NewRegistry()
	s, _ := reg.Create(Config{ID: "abs"})
	in := synthFeed(30)
	const base = 1700000000 * time.Second
	for i := range in.Sender {
		in.Sender[i].LocalTime += base
		in.Core[i].LocalTime += base
	}
	if _, err := s.Feed(&Batch{Sender: in.Sender, Core: in.Core}); err != nil {
		t.Fatal(err)
	}
	st, err := reg.Close("abs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Feed.Pending != 0 || st.Feed.Emitted != 30 {
		t.Fatalf("close did not drain the absolute-clock feed: %+v", st.Feed)
	}
}

// TestSessionStatusDetachedFromFeed pins the Status snapshot contract
// under -race: the returned Attribution.TotalMS is a copy, so a reader
// may iterate (or JSON-encode) it after the session mutex is released
// while concurrent feeds keep accumulating into the live map.
func TestSessionStatusDetachedFromFeed(t *testing.T) {
	reg := NewRegistry()
	s, err := reg.Create(Config{ID: "detach"})
	if err != nil {
		t.Fatal(err)
	}
	in := synthFeedTB(3000)
	stop := make(chan struct{})
	done := make(chan struct{})
	ready := make(chan struct{})
	go func() {
		defer close(done)
		close(ready)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum float64
			for _, ms := range s.Status().Attribution.TotalMS {
				sum += ms
			}
			_ = sum
		}
	}()
	<-ready // overlap the reader with the whole feed, not just its tail
	ti := 0
	for i := 0; i < len(in.Sender); i += 10 {
		j := i + 10
		if j > len(in.Sender) {
			j = len(in.Sender)
		}
		adv := in.Sender[j-1].LocalTime + 2*time.Millisecond
		b := Batch{Sender: in.Sender[i:j], Core: in.Core[i:j], AdvanceTo: adv}
		for ti < len(in.TBs) && in.TBs[ti].At <= adv {
			b.TBs = append(b.TBs, in.TBs[ti])
			ti++
		}
		if _, err := s.Feed(&b); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
	}
	close(stop)
	<-done
	st, err := reg.Close("detach")
	if err != nil {
		t.Fatal(err)
	}
	if st.Attribution.Packets == 0 {
		t.Fatal("workload produced no attributed packets; race coverage is vacuous")
	}
	if want := core.Correlate(in).PacketsDigest(); st.Digest != want {
		t.Fatalf("digest diverged: %s vs %s", st.Digest, want)
	}
}

func TestSessionBackpressure(t *testing.T) {
	reg := NewRegistry()
	s, _ := reg.Create(Config{ID: "bp", MaxPending: 10})
	in := synthFeed(11)
	_, err := s.Feed(&Batch{Sender: in.Sender})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	if s.Status().Feed.BufferedSender != 0 {
		t.Fatal("rejected batch was partially ingested")
	}
	// Under the bound the same records pass.
	if _, err := s.Feed(&Batch{Sender: in.Sender[:10], Core: in.Core[:10]}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFeedErrorKeepsUsable(t *testing.T) {
	reg := NewRegistry()
	s, _ := reg.Create(Config{ID: "err"})
	in := synthFeed(4)
	bad := in.Sender[2]
	bad.LocalTime = 0 // behind the stream head once 0 and 1 are in
	if _, err := s.Feed(&Batch{Sender: in.Sender[:2]}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(&Batch{Sender: []packet.Record{bad}}); !errors.Is(err, core.ErrOutOfOrder) {
		t.Fatalf("want ErrOutOfOrder through the session layer, got %v", err)
	}
	if _, err := s.Feed(&Batch{Sender: in.Sender[2:], Core: in.Core, AdvanceTo: time.Minute}); err != nil {
		t.Fatalf("session unusable after feed error: %v", err)
	}
	if st := s.Status(); st.Feed.Emitted != 4 {
		t.Fatalf("emitted %d, want 4", st.Feed.Emitted)
	}
}

func TestRegistryCreateErrors(t *testing.T) {
	reg := NewRegistry()
	reg.MaxSessions = 2
	if _, err := reg.Create(Config{ID: ""}); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("empty id: %v", err)
	}
	if _, err := reg.Create(Config{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(Config{ID: "a"}); !errors.Is(err, ErrExists) {
		t.Fatalf("dup id: %v", err)
	}
	if _, err := reg.Create(Config{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(Config{ID: "c"}); !errors.Is(err, ErrFull) {
		t.Fatalf("capacity: %v", err)
	}
	if got := len(reg.List()); got != 2 {
		t.Fatalf("listed %d sessions", got)
	}
}

// TestRegistryConcurrent exercises the documented concurrency contract
// under -race: many sessions fed in parallel while another goroutine
// lists and queries.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const n = 8
	var feeders sync.WaitGroup
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		s, err := reg.Create(Config{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		feeders.Add(1)
		go func(s *Session) {
			defer feeders.Done()
			in := synthFeed(100)
			for j := 0; j < len(in.Sender); j += 10 {
				b := Batch{
					Sender:    in.Sender[j : j+10],
					Core:      in.Core[j : j+10],
					AdvanceTo: in.Sender[j+9].LocalTime,
				}
				if _, err := s.Feed(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	stop := make(chan struct{})
	listerDone := make(chan struct{})
	go func() {
		defer close(listerDone)
		for {
			select {
			case <-stop:
				return
			default:
				reg.List()
			}
		}
	}()
	feeders.Wait()
	close(stop)
	<-listerDone

	want := core.Correlate(synthFeed(100)).PacketsDigest()
	for _, st := range reg.CloseAll() {
		if st.Digest != want {
			t.Fatalf("session %s digest diverged under concurrency", st.ID)
		}
	}
	if reg.Len() != 0 {
		t.Fatal("CloseAll left sessions behind")
	}
}
