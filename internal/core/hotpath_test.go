package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"athena/internal/packet"
)

// TestLiveSteadyStateAdvanceAllocFree pins the LiveCorrelator buffer-reuse
// contract: once the working set is warm, a steady-state ingest step
// (records in, Advance, one view emitted, mid-stream trim) performs no
// heap allocation at all — with a nil Emit, and with a consumer that
// reads the borrowed view inside the callback. Any new per-Advance map,
// slice, closure or per-view copy in the hot path shows up here as a
// fractional allocs/op.
func TestLiveSteadyStateAdvanceAllocFree(t *testing.T) {
	var tbs int
	for name, emit := range map[string]func(PacketView){
		"nil-emit":       nil,
		"borrowing-emit": func(v PacketView) { tbs += len(v.TBIDs) },
	} {
		lc := NewLive(Input{SlotDuration: 500 * time.Microsecond}, emit)
		seq := uint32(0)
		step := func() {
			feedStep(lc, seq)
			lc.Advance(time.Duration(seq) * 10 * time.Millisecond)
			seq++
		}
		// Warm up past the flush horizon and the first few trims so every
		// recycled buffer has reached its steady-state capacity.
		for i := 0; i < 500; i++ {
			step()
		}
		emitted := lc.Snapshot().Emitted
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Fatalf("%s: steady-state Advance allocates %.2f objects/op, want 0", name, allocs)
		}
		if lc.Snapshot().Emitted-emitted < 200 {
			t.Fatalf("%s: measured steps emitted no views", name)
		}
	}
	if tbs == 0 {
		t.Fatal("emitted views carried no TBIDs; the borrow was not exercised")
	}
}

// TestCorrelateAllocBound bounds the allocation count of a batch
// Correlate over a pre-sorted capture. The indexed hot path allocates a
// fixed set of capacity-hinted buffers per call — independent of how the
// input grows within a size class — so the bound is a small constant
// where the map-join implementation spent O(packets + TBs) allocations.
func TestCorrelateAllocBound(t *testing.T) {
	in := synthInput(5000, 4, 99)
	var rep *Report
	allocs := testing.AllocsPerRun(10, func() {
		rep = Correlate(in)
	})
	if len(rep.Packets) != 5000 {
		t.Fatalf("correlated %d of 5000 packets", len(rep.Packets))
	}
	// Measured ~60 on go1.24 (report + index maps + growth steps);
	// 200 leaves headroom for map-runtime changes while still failing
	// loudly on any return to per-record allocation.
	if allocs > 200 {
		t.Fatalf("batch Correlate allocates %.0f objects/op, want <= 200", allocs)
	}
}

// TestCorrelateMatchesMapJoinReference is the differential oracle for the
// hot-path overhaul: on randomized multi-flow inputs — with and without
// clock offsets, receiver captures, flow filters, and pre-sorted sender
// order — the indexed implementation must reproduce the preserved
// map-join reference byte for byte. (The reference contract requires
// unique (flow, seq, kind) sender keys, which synthInput guarantees.)
func TestCorrelateMatchesMapJoinReference(t *testing.T) {
	type variant struct {
		name string
		mut  func(in Input, rng *rand.Rand) Input
	}
	variants := []variant{
		{"plain", func(in Input, _ *rand.Rand) Input { return in }},
		{"offsets", func(in Input, _ *rand.Rand) Input {
			in.Offsets = map[packet.Point]time.Duration{
				packet.PointSender:   5 * time.Millisecond,
				packet.PointCore:     -2 * time.Millisecond,
				packet.PointReceiver: 1 * time.Millisecond,
			}
			return in
		}},
		{"receiver", func(in Input, _ *rand.Rand) Input {
			in.Receiver = make([]packet.Record, 0, len(in.Core))
			for _, r := range in.Core {
				r.Point = packet.PointReceiver
				r.LocalTime += 20 * time.Millisecond
				in.Receiver = append(in.Receiver, r)
			}
			in.ProbeOWDBaseline = 15 * time.Millisecond
			return in
		}},
		{"flow-filter", func(in Input, _ *rand.Rand) Input {
			in.Flows = []uint32{1, 3}
			return in
		}},
		{"unsorted-sender", func(in Input, rng *rand.Rand) Input {
			shuffled := append([]packet.Record(nil), in.Sender...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			in.Sender = shuffled
			return in
		}},
		{"no-tbs", func(in Input, _ *rand.Rand) Input {
			in.TBs = nil
			return in
		}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, flows := range []int{1, 4, 7} {
			base := synthInput(2500, flows, seed)
			for _, v := range variants {
				name := fmt.Sprintf("%s/seed%d/flows%d", v.name, seed, flows)
				rng := rand.New(rand.NewSource(seed * 1000))
				in := v.mut(base, rng)
				diffReports(t, name, Correlate(in), correlateMapJoinRef(in))
			}
		}
	}
}

// diffReports fails the test on the first field where got diverges from
// the reference report.
func diffReports(t *testing.T, name string, got, want *Report) {
	t.Helper()
	if len(got.Packets) != len(want.Packets) {
		t.Fatalf("%s: %d packets, reference has %d", name, len(got.Packets), len(want.Packets))
	}
	for i := range got.Packets {
		g, w := got.Packets[i], want.Packets[i]
		if !equalIDs(g.TBIDs, w.TBIDs) {
			t.Fatalf("%s: packet %d (flow %d seq %d) TBIDs %v, reference %v",
				name, i, g.Flow, g.Seq, g.TBIDs, w.TBIDs)
		}
		g.TBIDs, w.TBIDs = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: packet %d diverged:\n  got  %+v\n  want %+v", name, i, g, w)
		}
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("%s: %d frames, reference has %d", name, len(got.Frames), len(want.Frames))
	}
	for i := range got.Frames {
		if got.Frames[i] != want.Frames[i] {
			t.Fatalf("%s: frame %d diverged:\n  got  %+v\n  want %+v",
				name, i, got.Frames[i], want.Frames[i])
		}
	}
	if len(got.byKey) != len(want.byKey) {
		t.Fatalf("%s: index has %d keys, reference %d", name, len(got.byKey), len(want.byKey))
	}
	for k, gi := range got.byKey {
		if wi, ok := want.byKey[k]; !ok || wi != gi {
			t.Fatalf("%s: index[%v] = %d, reference %d (present %v)", name, k, gi, wi, ok)
		}
	}
	if (got.fifoLeft == nil) != (want.fifoLeft == nil) || len(got.fifoLeft) != len(want.fifoLeft) {
		t.Fatalf("%s: fifoLeft shape %d/%v, reference %d/%v",
			name, len(got.fifoLeft), got.fifoLeft == nil, len(want.fifoLeft), want.fifoLeft == nil)
	}
	for i := range got.fifoLeft {
		if got.fifoLeft[i] != want.fifoLeft[i] {
			t.Fatalf("%s: fifoLeft[%d] = %d, reference %d", name, i, got.fifoLeft[i], want.fifoLeft[i])
		}
	}
}
