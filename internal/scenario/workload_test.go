package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

// mixedTopology is a single-cell topology with the four families
// assigned round-robin.
func mixedTopology(ues int, dur time.Duration) Topology {
	top := NewTopology(ues)
	top.Duration = dur
	top.MixWorkloads()
	return top
}

// TestMixedCellCorrelatesPerFamily is the acceptance-criterion cell: one
// cell carrying all four families, each UE's flows correlated end to end
// with per-app attribution and a family-appropriate QoE score.
func TestMixedCellCorrelatesPerFamily(t *testing.T) {
	res := RunTopology(mixedTopology(4, 3*time.Second))
	byKind := map[WorkloadKind]*UEResult{}
	for _, u := range res.UEs {
		byKind[u.Workload] = u
	}
	if len(byKind) != 4 {
		t.Fatalf("expected 4 distinct families, got %d", len(byKind))
	}
	for _, u := range res.UEs {
		if len(u.Report.Packets) == 0 {
			t.Fatalf("UE %d (%s): empty correlated report", u.ID, u.Workload)
		}
		if len(u.Score.Scalars) == 0 {
			t.Fatalf("UE %d (%s): empty QoE score", u.ID, u.Workload)
		}
		if u.Score.Kind != u.Workload {
			t.Fatalf("UE %d: score kind %s != workload %s", u.ID, u.Score.Kind, u.Workload)
		}
		att := u.Report.Attribute()
		if att.Packets == 0 {
			t.Fatalf("UE %d (%s): no attributed packets", u.ID, u.Workload)
		}
	}

	vca := byKind[WorkloadVCA]
	if vca.Receiver == nil || vca.Sender == nil {
		t.Fatal("VCA UE missing its media endpoints")
	}
	if sum := vca.Report.DelaySummary(packet.KindVideo); sum.Count == 0 {
		t.Fatal("VCA UE: no correlated video packets")
	}

	g := byKind[WorkloadCloudGaming]
	if g.Receiver != nil {
		t.Fatal("gaming UE must not build a VCA receiver")
	}
	if sum := g.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("gaming UE: no correlated input events")
	}
	if fps := g.Score.Scalars["delivered_fps"]; fps < 30 {
		t.Fatalf("gaming delivered fps = %v, expected a near-60 stream", fps)
	}
	if p50 := g.Score.Scalars["input_p50_ms"]; p50 <= 0 {
		t.Fatalf("gaming input p50 = %v", p50)
	}

	bk := byKind[WorkloadBulkTransfer]
	if sum := bk.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("bulk UE: no correlated data packets")
	}
	if mbps := bk.Score.Scalars["goodput_mbps"]; mbps < 0.5 {
		t.Fatalf("bulk goodput = %v Mbps, saturating upload should deliver", mbps)
	}

	au := byKind[WorkloadAudioOnly]
	if sum := au.Report.DelaySummary(packet.KindAudio); sum.Count == 0 {
		t.Fatal("audio UE: no correlated audio packets")
	}
	if played := au.Score.Scalars["played"]; played == 0 {
		t.Fatal("audio UE: playout line never played a sample")
	}
}

// TestMixedHandoverDelivers hands a gaming UE between cells mid-run: the
// session must keep correlating (input events span both cells' TBs).
func TestMixedHandoverDelivers(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = 3 * time.Second
	top.MixWorkloads()
	// UE 1 is cloud-gaming (canonical order) homed on cell 1; send it to
	// cell 0 mid-run.
	top.UEs[1].Handovers = []Handover{{At: 1500 * time.Millisecond, ToCell: 0}}

	res := RunTopology(top)
	g := res.UEs[1]
	if g.Workload != WorkloadCloudGaming {
		t.Fatalf("UE 1 workload = %s, mix order changed", g.Workload)
	}
	if sum := g.Report.DelaySummary(packet.KindData); sum.Count == 0 {
		t.Fatal("gaming UE: no input events correlated across the handover")
	}
	if fps := g.Score.Scalars["delivered_fps"]; fps < 20 {
		t.Fatalf("gaming delivered fps = %v after handover", fps)
	}
}

func TestWorkloadScoreStringCanonical(t *testing.T) {
	ws := WorkloadScore{Kind: WorkloadBulkTransfer, Scalars: map[string]float64{
		"zeta": 1.25, "alpha": 3, "mid": 0.001,
	}}
	s := ws.String()
	if s != "bulk-transfer{alpha=3 mid=0.001 zeta=1.25}" {
		t.Fatalf("non-canonical score rendering: %s", s)
	}
	if !strings.HasPrefix(s, string(WorkloadBulkTransfer)) {
		t.Fatalf("score missing kind prefix: %s", s)
	}
}

// mustRejectTopology asserts the one rejection path for a hostile
// configuration: Validate names the fault, and RunTopology panics with
// exactly that error instead of failing somewhere mid-build.
func mustRejectTopology(t *testing.T, top Topology, want string) {
	t.Helper()
	err := top.Validate()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate() = %v, want an error containing %q", err, want)
	}
	defer func() {
		if r, ok := recover().(error); !ok || r.Error() != err.Error() {
			t.Fatalf("RunTopology panicked with %v, want the Validate error %q", r, err)
		}
	}()
	RunTopology(top)
}

func TestUnknownWorkloadPanics(t *testing.T) {
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.UEs[0].Workload = "teleportation"
	mustRejectTopology(t, top, `UE 0 names unknown workload "teleportation"`)
}

func TestTwoPartyOnNonVCAPanics(t *testing.T) {
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.UEs[0].Workload = WorkloadBulkTransfer
	top.UEs[0].TwoParty = true
	mustRejectTopology(t, top, `UE 0 sets TwoParty on workload "bulk-transfer" (VCA-only)`)
}

// TestNonVCARequiresRANPath pins the guard: the non-VCA families need
// the shared cell's downlink.
func TestNonVCARequiresRANPath(t *testing.T) {
	top := NewTopology(1)
	top.Duration = 100 * time.Millisecond
	top.Access = AccessWiFi
	top.UEs[0].Workload = WorkloadAudioOnly
	mustRejectTopology(t, top, `workload "audio-only" on UE 0 requires the Access5G path`)
}

// TestInvalidCellReferencesRejected covers the cell-reference half of
// Validate: each fault used to panic from a different depth of the build.
func TestInvalidCellReferencesRejected(t *testing.T) {
	for _, tc := range []struct {
		want string
		mut  func(*Topology)
	}{
		{"Topology.Cells requires the Access5G path", func(top *Topology) { top.Access = AccessWiFi }},
		{"UE 1 homed on cell 2 of 2", func(top *Topology) { top.UEs[1].Cell = 2 }},
		{"UE 0 hands over to cell -1 of 2", func(top *Topology) {
			top.UEs[0].Handovers = []Handover{{At: time.Millisecond, ToCell: -1}}
		}},
		{"UE 1 sets Cell/Handovers but Topology.Cells is empty", func(top *Topology) { top.Cells = nil }},
	} {
		top := NewMultiCellTopology(2, 2)
		tc.mut(&top)
		mustRejectTopology(t, top, tc.want)
	}
}

// TestQoEAwareSchedulerPrioritizesLatency runs the mixed cell under the
// app-hint scheduler against the default arbitration on a loaded cell:
// the latency-hinted gaming input stream must not get worse, and the
// throughput-hinted bulk flow is the one that pays.
func TestQoEAwareSchedulerMixedCell(t *testing.T) {
	run := func(sched ran.SchedulerKind) *TopologyResult {
		top := mixedTopology(4, 3*time.Second)
		for i := range top.UEs {
			top.UEs[i].Sched = sched
		}
		// Load the cell so arbitration order matters, but leave residual
		// capacity — strict tier priority starves the throughput class when
		// higher tiers (including HintNone cross UEs) saturate the cell.
		top.CrossUEs = 2
		top.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 4 * units.Mbps}}
		return RunTopology(top)
	}
	base := run(ran.SchedCombined)
	qoe := run(ran.SchedQoEAware)

	gBase := base.UEs[1].Score.Scalars["input_p95_ms"]
	gQoE := qoe.UEs[1].Score.Scalars["input_p95_ms"]
	if gQoE > gBase*1.5 {
		t.Fatalf("qoe-aware worsened gaming input p95: %v -> %v ms", gBase, gQoE)
	}
	// Bulk still makes progress (starved entirely would be a scheduler bug).
	if mbps := qoe.UEs[2].Score.Scalars["goodput_mbps"]; mbps <= 0 {
		t.Fatalf("qoe-aware starved bulk entirely: %v Mbps", mbps)
	}
}

// A receiver retires the sender's stored frame once it completes (or is
// given up on), so after a run each FrameStore holds only frames still in
// flight: none whose every packet already reached the receiver's tap.
func TestFrameStoreHoldsOnlyFramesInFlight(t *testing.T) {
	top := NewMultiCellTopology(16, 2)
	top.Duration = 4 * time.Second
	res := RunTopology(top)
	for _, ue := range res.UEs {
		video, _ := ue.Sender.SSRCs()
		frames := map[uint32][]uint64{} // RTP timestamp → the frame's packets
		for _, rec := range ue.CapSender.Records {
			if rec.Kind == packet.KindVideo && rec.SSRC == video {
				frames[rec.RTPTime] = append(frames[rec.RTPTime], rec.PacketID)
			}
		}
		arrived := map[uint64]bool{}
		for _, rec := range ue.CapReceiver.Records {
			arrived[rec.PacketID] = true
		}
		stored := ue.Sender.FrameStore
		if 4*len(stored) > len(frames) {
			t.Errorf("UE %d: %d of %d sent frames still stored", ue.ID, len(stored), len(frames))
		}
		for id, ef := range stored {
			pkts := frames[uint32(ef.PTS.Seconds()*90000)]
			if len(pkts) == 0 {
				t.Fatalf("UE %d: stored frame %#x (PTS %v) matches no sent packet", ue.ID, id, ef.PTS)
			}
			if !slices.ContainsFunc(pkts, func(p uint64) bool { return !arrived[p] }) {
				t.Errorf("UE %d: frame %#x (PTS %v) reached the receiver whole but is still stored", ue.ID, id, ef.PTS)
			}
		}
	}
}
