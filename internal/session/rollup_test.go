package session

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/telemetry"
)

// synthFeedHARQ extends synthFeedTB with HARQ retransmissions: every
// 4th packet's TB fails its initial attempt and lands on a retx 5 ms
// later, so those packets carry HARQDelay = 5 ms.
func synthFeedHARQ(n int) core.Input {
	in := synthFeedTB(n)
	tbs := make([]telemetry.TBRecord, 0, len(in.TBs)+n/4)
	for _, tb := range in.TBs {
		if int(tb.TBID)%4 == 0 {
			fail := tb
			fail.Failed = true
			tbs = append(tbs, fail)
			retx := tb
			retx.HARQRound = 1
			retx.At += 5 * time.Millisecond
			tbs = append(tbs, retx)
		} else {
			tbs = append(tbs, tb)
		}
	}
	in.TBs = tbs
	return in
}

// feedChunks streams an input into a session in chunks of batchSize
// packets, interleaving its TB telemetry (if any) in time order. With
// drain it then advances past every flush horizon; without, the last
// chunk is fed with no clock advance and stays pending until the session
// closes.
func feedChunks(s *Session, in core.Input, batchSize int, drain bool) error {
	ti := 0
	for i := 0; i < len(in.Sender); i += batchSize {
		j := min(i+batchSize, len(in.Sender))
		b := Batch{Sender: in.Sender[i:j], Core: in.Core[i:j], AdvanceTo: in.Sender[j-1].LocalTime + 6*time.Millisecond}
		for ti < len(in.TBs) && in.TBs[ti].At <= b.AdvanceTo {
			b.TBs = append(b.TBs, in.TBs[ti])
			ti++
		}
		if !drain && j == len(in.Sender) {
			b.AdvanceTo = 0
		}
		if _, err := s.Feed(&b); err != nil {
			return fmt.Errorf("feed chunk %d: %w", i, err)
		}
	}
	b := Batch{TBs: in.TBs[ti:]}
	if drain {
		b.AdvanceTo = in.Sender[len(in.Sender)-1].LocalTime + 30*time.Second
	}
	if _, err := s.Feed(&b); err != nil {
		return fmt.Errorf("final feed: %w", err)
	}
	return nil
}

// feedAll feeds a whole input through feedChunks and drains it.
func feedAll(t *testing.T, s *Session, in core.Input, batchSize int) {
	t.Helper()
	if err := feedChunks(s, in, batchSize, true); err != nil {
		t.Fatal(err)
	}
}

// TestRollupTotalsExactAcrossSessions pins the /v1/overview acceptance
// contract: the fleet totals equal the sum of every session's integer
// attribution totals EXACTLY — not approximately — because both sides
// fold the same int64 nanosecond components. Runs with obs disabled to
// prove the totals are always-on service data, not gated diagnostics.
func TestRollupTotalsExactAcrossSessions(t *testing.T) {
	reg := NewRegistry()
	cfgs := []Config{
		{ID: "a", Cell: "cell0", Workload: "vca"},
		{ID: "b", Cell: "cell0", Workload: "bulk-transfer"},
		{ID: "c", Cell: "cell1", Workload: "vca"},
		{ID: "d"}, // unlabeled on both dimensions
	}
	sizes := []int{50, 80, 110, 140}
	for i, cfg := range cfgs {
		s, err := reg.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, s, synthFeedHARQ(sizes[i]), 7)
	}
	finals := reg.CloseAll()
	if len(finals) != len(cfgs) {
		t.Fatalf("closed %d sessions", len(finals))
	}
	for _, st := range finals {
		if st.Attribution.Packets == 0 {
			t.Fatalf("session %s attributed nothing; exactness check is vacuous", st.ID)
		}
	}

	ov := reg.Overview()
	if ov.Sessions != 0 {
		t.Fatalf("overview sessions = %d after CloseAll", ov.Sessions)
	}
	if ov.RetxAffected == 0 {
		t.Fatal("no HARQ-affected packets; the HARQ total is vacuously exact")
	}
	requireOverviewIsSum(t, ov, finals)
	// The unlabeled session lands in the "unlabeled" bin on both
	// dimensions.
	if ov.Cells[unlabeledBin].Packets == 0 || ov.Families[unlabeledBin].Packets == 0 {
		t.Fatalf("unlabeled session not binned under %q: %+v", unlabeledBin, ov)
	}
	if len(ov.Cells) != 3 || len(ov.Families) != 3 {
		t.Fatalf("bins: %d cells, %d families, want 3+3", len(ov.Cells), len(ov.Families))
	}
}

// requireOverviewIsSum fails unless the overview's fleet totals equal the
// sum of the sessions' final attributions exactly, and its bins partition
// those totals.
func requireOverviewIsSum(t *testing.T, ov Overview, finals []Status) {
	t.Helper()
	var want core.Attribution
	for _, st := range finals {
		a := st.Attribution
		want.Packets += a.Packets
		want.RetxAffected += a.RetxAffected
		want.BSRServed += a.BSRServed
		for i, c := range core.Causes {
			want.TotalNS[i] += a.TotalNS[c]
		}
	}
	if ov.Packets != int64(want.Packets) || ov.RetxAffected != int64(want.RetxAffected) || ov.BSRServed != int64(want.BSRServed) {
		t.Fatalf("overview counts %d/%d/%d, want %d/%d/%d",
			ov.Packets, ov.RetxAffected, ov.BSRServed, want.Packets, want.RetxAffected, want.BSRServed)
	}
	for i, c := range core.Causes {
		if ov.TotalNS[c] != want.TotalNS[i] {
			t.Fatalf("cause %s: overview %d ns != session sum %d ns", c, ov.TotalNS[c], want.TotalNS[i])
		}
		if ov.TotalMS[c] != float64(want.TotalNS[i])/1e6 {
			t.Fatalf("cause %s: overview ms %v is not the exact rendering of %d ns", c, ov.TotalMS[c], want.TotalNS[i])
		}
	}
	if err := binsPartitionTotals(ov); err != nil {
		t.Fatal(err)
	}
}

// binsPartitionTotals reports where an overview's cell bins or family
// bins fail to sum to its fleet packets and cause totals, or nil.
func binsPartitionTotals(ov Overview) error {
	for dim, bins := range map[string]map[string]BinStats{"cells": ov.Cells, "families": ov.Families} {
		var packets int64
		binNS := make(map[core.Cause]int64)
		for _, b := range bins {
			packets += b.Packets
			for c, ns := range b.TotalNS {
				binNS[c] += ns
			}
		}
		if packets != ov.Packets {
			return fmt.Errorf("%s bins cover %d packets, totals %d", dim, packets, ov.Packets)
		}
		for _, c := range core.Causes {
			if binNS[c] != ov.TotalNS[c] {
				return fmt.Errorf("%s bins cause %s: %d != totals %d", dim, c, binNS[c], ov.TotalNS[c])
			}
		}
	}
	return nil
}

// The rollup's share of the emit path must not allocate, enabled or
// disabled: the per-view observe, and the per-feed fold.
func TestRollupFoldNoAllocs(t *testing.T) {
	r := NewRollup()
	f := r.Bind("cell0", "vca")
	c := core.Components{1000, 2000, 3000, 4000, 500}
	var a core.Attribution
	a.Add(c)
	observe := func() { f.observe(c, true) }
	fold := func() { f.fold(a) }
	for _, on := range []bool{false, true} {
		if on {
			obs.Enable()
			defer obs.Disable()
		}
		if n := testing.AllocsPerRun(1000, observe); n != 0 {
			t.Fatalf("observe allocates %.1f/op (obs on: %v)", n, on)
		}
		if n := testing.AllocsPerRun(1000, fold); n != 0 {
			t.Fatalf("fold allocates %.1f/op (obs on: %v)", n, on)
		}
	}
}

// With obs enabled the overview additionally carries distribution
// quantiles per cause and per bin.
func TestRollupQuantilesWhenEnabled(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetAll()
	}()
	reg := NewRegistry()
	s, err := reg.Create(Config{ID: "q", Cell: "cellq", Workload: "vca"})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, s, synthFeedHARQ(100), 10)
	ov := reg.Overview()
	qs := ov.Causes[core.CauseQueueSlot]
	if qs.Count == 0 || qs.P99NS == 0 {
		t.Fatalf("queue-slot distribution empty: %+v", qs)
	}
	// The HARQ p99 must land at the bucket bound covering the injected
	// 5 ms retx inflation (25%% of packets).
	if h := ov.Causes[core.CauseHARQ]; h.P99NS < int64(5*time.Millisecond) {
		t.Fatalf("HARQ p99 %d ns does not cover the 5ms retx delay", h.P99NS)
	}
	cb := ov.Cells["cellq"]
	if cb.P99NS == 0 || cb.Packets == 0 {
		t.Fatalf("cell bin distribution empty: %+v", cb)
	}
}

// TestRegistryEventsLifecycle pins the structured event stream: create,
// backpressure, feed-contract rejection, close (with digest + packet
// count), and the drain marker, in order.
func TestRegistryEventsLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.Events = obs.NewEventLog(64)

	s, err := reg.Create(Config{ID: "ev1", Cell: "cell0", Workload: "vca", MaxPending: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := synthFeed(11)
	if _, err := s.Feed(&Batch{Sender: in.Sender}); err == nil {
		t.Fatal("expected backpressure")
	}
	// Feed-contract rejection: a record behind the stream head.
	if _, err := s.Feed(&Batch{Sender: in.Sender[:2]}); err != nil {
		t.Fatal(err)
	}
	bad := in.Sender[0] // seq 0 again: duplicate/out-of-order
	if _, err := s.Feed(&Batch{Sender: []packet.Record{bad}}); err == nil {
		t.Fatal("expected feed-contract rejection")
	}
	if _, err := s.Feed(&Batch{Sender: in.Sender[2:10], Core: in.Core[:10], AdvanceTo: time.Minute}); err != nil {
		t.Fatal(err)
	}
	st, err := reg.Close("ev1")
	if err != nil {
		t.Fatal(err)
	}
	reg.Create(Config{ID: "ev2"})
	reg.CloseAll()

	evs, dropped, _ := reg.Events.Since(0, 0)
	if dropped != 0 {
		t.Fatalf("dropped %d events from a 64-slot ring", dropped)
	}
	types := make([]string, len(evs))
	for i, e := range evs {
		types[i] = e.Type
	}
	want := []string{
		"session.create",       // ev1
		"session.backpressure", // 11 > 10 pending bound
		"session.reject",       // out-of-order record
		"session.close",        // explicit Close
		"session.create",       // ev2
		"registry.drain",       // CloseAll marker
		"session.close",        // ev2 via CloseAll
	}
	if len(types) != len(want) {
		t.Fatalf("event stream %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (full stream %v)", i, types[i], want[i], types)
		}
	}
	// The close event carries the final digest and attributed-packet
	// count; create carries the rollup dimensions.
	if evs[0].Cell != "cell0" || evs[0].Family != "vca" || evs[0].Session != "ev1" {
		t.Fatalf("create event %+v", evs[0])
	}
	if evs[3].Detail != st.Digest || evs[3].Value != int64(st.Attribution.Packets) {
		t.Fatalf("close event %+v, want digest %s value %d", evs[3], st.Digest, st.Attribution.Packets)
	}
	if evs[1].Value != 11 {
		t.Fatalf("backpressure event value %d, want 11 (pending+arriving)", evs[1].Value)
	}
	if evs[2].Detail == "" {
		t.Fatal("reject event carries no error detail")
	}
	if evs[5].Value != 1 {
		t.Fatalf("drain event value %d, want 1 remaining session", evs[5].Value)
	}
}

// TestSessionAnomalyEvents pins the threshold-crossing detector: a
// session whose HARQ-attributed p99 exceeds the registry bound emits
// exactly one session.anomaly event (not one per feed) until it clears —
// with metrics collection on or off, since the tracker is session state
// and not a metric.
func TestSessionAnomalyEvents(t *testing.T) {
	for name, metrics := range map[string]bool{"metrics-on": true, "metrics-off": false} {
		t.Run(name, func(t *testing.T) {
			defer obs.ResetAll()
			if metrics {
				obs.Enable()
				defer obs.Disable()
			}
			testSessionAnomalyEvents(t)
		})
	}
}

func testSessionAnomalyEvents(t *testing.T) {
	reg := NewRegistry()
	reg.Events = obs.NewEventLog(256)
	reg.AnomalyHARQP99 = time.Millisecond

	s, err := reg.Create(Config{ID: "anom", Cell: "cell0", Workload: "vca"})
	if err != nil {
		t.Fatal(err)
	}
	// 25% of packets carry 5 ms HARQ inflation: p99 lands well past 1 ms.
	feedAll(t, s, synthFeedHARQ(200), 10)

	evs, _, _ := reg.Events.Since(0, 0)
	var raised []obs.Event
	for _, e := range evs {
		if e.Type == "session.anomaly" {
			raised = append(raised, e)
		}
	}
	if len(raised) != 1 {
		t.Fatalf("anomaly raised %d times across %d feeds, want exactly 1", len(raised), 200/10)
	}
	a := raised[0]
	if a.Session != "anom" || a.Cell != "cell0" || a.Family != "vca" || a.Detail != "harq_p99_ns" {
		t.Fatalf("anomaly event %+v", a)
	}
	if a.Value <= int64(time.Millisecond) {
		t.Fatalf("anomaly value %d ns not above the 1ms bound", a.Value)
	}

	// A clean session under the same registry never alarms.
	s2, _ := reg.Create(Config{ID: "clean"})
	feedAll(t, s2, synthFeedTB(100), 10)
	evs, _, _ = reg.Events.Since(0, 0)
	for _, e := range evs {
		if e.Type == "session.anomaly" && e.Session == "clean" {
			t.Fatalf("clean session raised an anomaly: %+v", e)
		}
	}
}
