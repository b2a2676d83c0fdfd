package scenario

import (
	"testing"
	"time"

	"athena/internal/core"
)

// replayDigest streams one session feed into a fresh live correlator and
// returns the emitted-view digest plus the emission count.
func replayDigest(t *testing.T, ss SessionStream, tick time.Duration) (string, int) {
	t.Helper()
	vh := core.NewViewHasher()
	n := 0
	lc := core.NewLive(ss.Input, func(v core.PacketView) { vh.Add(v); n++ })
	if err := ss.Replay(lc, tick); err != nil {
		t.Fatalf("stream %s: %v", ss.ID, err)
	}
	if snap := lc.Snapshot(); snap.Pending != 0 {
		t.Fatalf("stream %s: %d packets still pending after replay", ss.ID, snap.Pending)
	}
	return vh.Sum(), n
}

// assertStreamsMatchOffline pins the service correctness bar on a run:
// every UE's streamed live attribution must digest-match the offline
// batch correlation of the same feed.
func assertStreamsMatchOffline(t *testing.T, res *TopologyResult, tick time.Duration) {
	t.Helper()
	streams := res.SessionStreams()
	if len(streams) != len(res.UEs) {
		t.Fatalf("%d streams for %d UEs", len(streams), len(res.UEs))
	}
	for _, ss := range streams {
		if len(ss.Input.Sender) == 0 {
			t.Fatalf("stream %s: empty sender feed", ss.ID)
		}
		live, n := replayDigest(t, ss, tick)
		if n != len(ss.Input.Sender) {
			t.Fatalf("stream %s: emitted %d of %d packets", ss.ID, n, len(ss.Input.Sender))
		}
		batch := core.Correlate(ss.Input)
		if want := batch.PacketsDigest(); live != want {
			t.Fatalf("stream %s: live digest %s != offline %s", ss.ID, live, want)
		}
	}
}

func TestSessionStreamsMatchOfflineSingleCell(t *testing.T) {
	top := NewTopology(2)
	top.Duration = 2 * time.Second
	res := RunTopology(top)
	assertStreamsMatchOffline(t, res, 50*time.Millisecond)
}

// TestSessionStreamsMatchOfflineSharded covers the acceptance criterion's
// sharded multi-cell case: streams tapped off a parallel multi-cell run
// (one UE per shard and two UEs sharing a shard) must digest-match their
// offline correlations too.
func TestSessionStreamsMatchOfflineSharded(t *testing.T) {
	top := NewMultiCellTopology(3, 2)
	top.Duration = 2 * time.Second
	res := RunTopology(top)
	if len(res.Shards) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(res.Shards))
	}
	assertStreamsMatchOffline(t, res, 100*time.Millisecond)
}

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

// TestSessionStreamInputsMatchRunReports checks the tap reproduces the
// run's own correlation inputs: batch-correlating a tapped stream yields
// the same per-packet joins the run computed (modulo the downstream
// captures the live path does not ingest).
func TestSessionStreamInputsMatchRunReports(t *testing.T) {
	top := NewTopology(2)
	top.Duration = 2 * time.Second
	res := RunTopology(top)
	for _, ss := range res.SessionStreams() {
		rep := core.Correlate(ss.Input)
		ref := res.UEs[ss.UE].Report
		if len(rep.Packets) != len(ref.Packets) {
			t.Fatalf("stream %s: %d packets vs run's %d", ss.ID, len(rep.Packets), len(ref.Packets))
		}
		for i, v := range rep.Packets {
			rv := ref.Packets[i]
			if v.Flow != rv.Flow || v.Seq != rv.Seq || v.Kind != rv.Kind ||
				v.ULDelay != rv.ULDelay || v.QueueWait != rv.QueueWait ||
				v.HARQDelay != rv.HARQDelay || v.SeenCore != rv.SeenCore {
				t.Fatalf("stream %s packet %d diverges from run report", ss.ID, i)
			}
		}
	}
}
