package scenario

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/packet"
)

// TestSessionStreamsSeenCoreUnderSenderOffset runs every sender clock
// 30 ms ahead, so replay delivers a packet's core record chunks before
// its sender record. Each live view must still see the core exactly
// when the offline view does. Full digest equality is not asserted here:
// under offset a few views per UE still differ in TB set.
func TestSessionStreamsSeenCoreUnderSenderOffset(t *testing.T) {
	top := NewTopology(2)
	top.Duration = 2 * time.Second
	for i := range top.UEs {
		top.UEs[i].SenderClockOffset = 30 * time.Millisecond
	}
	for _, ss := range RunTopology(top).SessionStreams() {
		var live []bool
		lc := core.NewLive(ss.Input, func(v core.PacketView) { live = append(live, v.SeenCore) })
		if err := ss.Replay(lc, 50*time.Millisecond); err != nil {
			t.Fatalf("stream %s: %v", ss.ID, err)
		}
		offline := core.Correlate(ss.Input).Packets
		if len(live) != len(offline) {
			t.Fatalf("stream %s: emitted %d of %d views", ss.ID, len(live), len(offline))
		}
		differ := 0
		for i, v := range offline {
			if live[i] != v.SeenCore {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("stream %s: %d of %d views disagree with offline on SeenCore", ss.ID, differ, len(offline))
		}
	}
}

// TestSessionStreamLabels pins the rollup dimension labels on tapped
// streams: each stream carries its UE's attach cell and resolved
// workload family, across shards and mixed workloads.
func TestSessionStreamLabels(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = time.Second
	top.MixWorkloads()
	res := RunTopology(top)
	streams := res.SessionStreams()
	if len(streams) != 4 {
		t.Fatalf("%d streams", len(streams))
	}
	kinds := make(map[WorkloadKind]int)
	cells := make(map[int]int)
	for _, ss := range streams {
		if ss.Workload == "" {
			t.Fatalf("stream %s: empty workload label", ss.ID)
		}
		if ss.Workload != res.UEs[ss.UE].Workload {
			t.Fatalf("stream %s: workload %q != UE's %q", ss.ID, ss.Workload, res.UEs[ss.UE].Workload)
		}
		if ss.Cell != res.UEs[ss.UE].Spec.Cell {
			t.Fatalf("stream %s: cell %d != UE's %d", ss.ID, ss.Cell, res.UEs[ss.UE].Spec.Cell)
		}
		kinds[ss.Workload]++
		cells[ss.Cell]++
	}
	if len(kinds) < 2 {
		t.Fatalf("mixed workloads collapsed to %v", kinds)
	}
	if len(cells) != 2 {
		t.Fatalf("cells %v, want both cells covered", cells)
	}

	// The single-cell default keeps the historical VCA family and cell 0.
	st := NewTopology(1)
	st.Duration = time.Second
	for _, ss := range RunTopology(st).SessionStreams() {
		if ss.Workload != WorkloadVCA || ss.Cell != 0 {
			t.Fatalf("single-cell stream labels %q/%d", ss.Workload, ss.Cell)
		}
	}
}

// TestSingleUEInputsAliasCaptures pins what lets a single-UE run skip
// copying its logs: the correlator input of a UE that owns every record
// of its shard's core capture and telemetry is that capture and that
// telemetry, capped at their length, and neither core.Correlate nor
// SessionStream.Chunks writes to any slice it is given — sorted or not.
func TestSingleUEInputsAliasCaptures(t *testing.T) {
	top := NewTopology(1)
	top.Duration = 2 * time.Second
	res := RunTopology(top)
	sr := res.Shards[0]
	ss := res.SessionStreams()[0]
	in := ss.Input
	if len(in.Core) == 0 || &in.Core[0] != &sr.CapCore.Records[0] || len(in.Core) != len(sr.CapCore.Records) {
		t.Fatal("the single-UE core input does not share the core capture's backing array")
	}
	if len(in.TBs) == 0 || &in.TBs[0] != &sr.RANs[0].Telemetry.Records[0] || len(in.TBs) != len(sr.RANs[0].Telemetry.Records) {
		t.Fatal("the single-UE TB input does not share the cell telemetry's backing array")
	}
	if cap(in.Core) != len(in.Core) || cap(in.TBs) != len(in.TBs) {
		t.Fatal("an aliased input is not capped at its length: an append could write into the log")
	}

	full := shardInputs(res.Top, sr, true)[0]
	// An unsorted sender and core capture take the sort-a-copy path.
	unsorted := deepCopyInput(full)
	for _, s := range [][]packet.Record{unsorted.Sender, unsorted.Core} {
		for i := 1; i < len(s); i++ {
			if s[i-1].LocalTime != s[i].LocalTime {
				s[i-1], s[i] = s[i], s[i-1]
				break
			}
		}
	}
	for _, tc := range []struct {
		name string
		in   core.Input
		call func(core.Input)
	}{
		{"Correlate", full, func(in core.Input) { core.Correlate(in) }},
		{"Correlate-unsorted", unsorted, func(in core.Input) { core.Correlate(in) }},
		{"Chunks", ss.Input, func(in core.Input) { (&SessionStream{Input: in}).Chunks(50 * time.Millisecond) }},
	} {
		want := deepCopyInput(tc.in)
		tc.call(tc.in)
		if !reflect.DeepEqual(tc.in, want) {
			t.Errorf("%s wrote to its input", tc.name)
		}
	}
}

// deepCopyInput copies every capture and TB slice of in, the TBs'
// packet lists included.
func deepCopyInput(in core.Input) core.Input {
	in.Sender = slices.Clone(in.Sender)
	in.Core = slices.Clone(in.Core)
	in.SFU = slices.Clone(in.SFU)
	in.Receiver = slices.Clone(in.Receiver)
	in.TBs = slices.Clone(in.TBs)
	for i := range in.TBs {
		in.TBs[i].PacketIDs = slices.Clone(in.TBs[i].PacketIDs)
	}
	in.Flows = slices.Clone(in.Flows)
	in.Offsets = maps.Clone(in.Offsets)
	return in
}
