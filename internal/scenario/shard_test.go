package scenario

import (
	"runtime"
	"testing"
	"time"

	"athena/internal/ran"
	"athena/internal/units"
)

// shortShardedTopology builds a 6-UE / 3-cell topology with inter-cell
// interference coupling and one UE that hands over between cells 2 and
// 1 mid-run. The handover unites cells 1 and 2 into one domain while
// cell 0 stays independent, so the plan has two shards — parallel
// advancement is genuinely exercised alongside the handover and the
// coupling exchange.
func shortShardedTopology(seed int64) Topology {
	top := NewMultiCellTopology(6, 3)
	top.Seed = seed
	top.Duration = 3 * time.Second
	top.InterferenceCoupling = 0.3
	top.UEs[5].Handovers = []Handover{{At: 1200 * time.Millisecond, ToCell: 1}}
	return top
}

// pairedHandoverTopology is the deployment-scale input: 100 UEs round-
// robin over 4 cells, the first four handing over mid-run to their paired
// cell (2k ↔ 2k+1). Pairing — rather than hopping to the next cell —
// keeps the handover domains at two cells each, so the run stays on two
// shards instead of collapsing into one engine.
func pairedHandoverTopology(seed int64) Topology {
	top := NewMultiCellTopology(100, 4)
	top.Seed = seed
	top.Duration = 2 * time.Second
	for i := 0; i < 4; i++ {
		top.UEs[i].Handovers = []Handover{{At: top.Duration / 2, ToCell: top.UEs[i].Cell ^ 1}}
	}
	return top
}

// TestShardedDigestsMatchSerial is the golden determinism claim of the
// sharded engine: serial and parallel shard advancement must produce
// byte-identical digests, across seeds, with interference coupling and
// a handover in play — and at deployment scale, on two shards.
func TestShardedDigestsMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(seed int64) Topology
		seeds []int64
	}{
		{"6ue-3cell-coupled", shortShardedTopology, []int64{1, 7, 1234}},
		{"100ue-4cell-paired", pairedHandoverTopology, []int64{1}},
	} {
		for _, seed := range tc.seeds {
			run := func(serial bool) *TopologyResult {
				top := tc.build(seed)
				top.Serial = serial
				return RunTopology(top)
			}
			serial, parallel := run(true), run(false)
			if len(serial.Shards) != 2 || len(parallel.Shards) != 2 {
				t.Fatalf("%s seed %d: %d serial / %d parallel shards, want 2",
					tc.name, seed, len(serial.Shards), len(parallel.Shards))
			}
			if s, p := serial.Digest(), parallel.Digest(); s != p {
				t.Fatalf("%s seed %d: serial digest %s != parallel digest %s", tc.name, seed, s, p)
			}
		}
	}
}

// TestSingleCellDigestsPinned keeps the deleted single-cell engine as a
// reference the way TestSourceGoldenPixels keeps the per-pixel camera:
// the literals are TopologyResult.Digest() of these inputs as that engine
// (runTopologyBuild, commit fadc9a7) produced them, and the one engine
// must reproduce them — the windows, the barrier machinery and the shard
// plumbing are execution-only. Spelling the implicit cell out must change
// nothing either: Cells: nil ≡ Cells: []CellSpec{{}}.
func TestSingleCellDigestsPinned(t *testing.T) {
	cross := mixedTopology(4, 3*time.Second)
	cross.CrossUEs = 2
	cross.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 4 * units.Mbps}}
	for _, tc := range []struct {
		name string
		top  Topology
		want string
	}{
		{"3ue-vca", shortMultiTopology(3), "b5157cc231a96af1e5cc47f41c37c29bd5a7baee445ae6a4cae3899185e22321"},
		{"8ue-mixed", mixedTopology(8, 2*time.Second), "d632faa53e0d223bfd57f389b0849202121c4d2e20c5caa54f8213851594cd11"},
		{"4ue-mixed-cross", cross, "eba0f009719816fe8bfd204dde4f2d36dc124631d24447fd6260278c516ba626"},
	} {
		implicit := RunTopology(tc.top)
		if len(implicit.Shards) != 1 || len(implicit.Top.Cells) != 1 {
			t.Fatalf("%s: %d shards over %d cells, want 1 over 1", tc.name, len(implicit.Shards), len(implicit.Top.Cells))
		}
		got := implicit.Digest()
		// Encoder-noise floats are not FMA-pinned off amd64 (ROADMAP item 6).
		if runtime.GOARCH == "amd64" && got != tc.want {
			t.Errorf("%s: digest %s, the single-cell engine recorded %s", tc.name, got, tc.want)
		}
		explicit := tc.top
		explicit.Cells = []CellSpec{{CrossUEs: tc.top.CrossUEs, CrossPhases: tc.top.CrossPhases}}
		if d := RunTopology(explicit).Digest(); d != got {
			t.Errorf("%s: explicit one-cell digest %s != implicit-cell digest %s", tc.name, d, got)
		}
	}
}

// TestShardedTopologyCorrelates checks the end-to-end semantics of a
// static multi-cell run: every UE correlates packets over only its own
// flows, every UE delivers media, cells map to shards one-to-one when
// nothing hands over, and per-cell telemetry stays disjoint (TBID
// namespaces included).
func TestShardedTopologyCorrelates(t *testing.T) {
	top := NewMultiCellTopology(4, 2)
	top.Duration = 3 * time.Second
	tr := RunTopology(top)

	if len(tr.Shards) != 2 {
		t.Fatalf("static 2-cell topology produced %d shards, want 2", len(tr.Shards))
	}
	if len(tr.UEs) != 4 {
		t.Fatalf("got %d UE results, want 4", len(tr.UEs))
	}
	for i, u := range tr.UEs {
		if u == nil {
			t.Fatalf("UE %d missing from assembled result", i)
		}
		own := make(map[uint32]bool)
		for _, f := range u.Flows.All() {
			own[f] = true
		}
		if len(u.Report.Packets) == 0 {
			t.Fatalf("UE %d correlated zero packets", i)
		}
		delivered := 0
		for _, v := range u.Report.Packets {
			if !own[v.Flow] {
				t.Fatalf("UE %d report contains foreign flow %d", i, v.Flow)
			}
			if v.SeenCore && v.SeenRecv {
				delivered++
			}
			for _, id := range v.TBIDs {
				if cell := uint32(id >> 48); int(cell) != i%2 {
					t.Fatalf("UE %d (home cell %d) carried by TB %#x of cell %d", i, i%2, id, cell)
				}
			}
		}
		if delivered == 0 {
			t.Fatalf("UE %d delivered zero packets end to end", i)
		}
	}
	// Shard structure: shard 0 owns cell 0, shard 1 owns cell 1, and the
	// top-level aliases point at shard 0.
	for si, sr := range tr.Shards {
		if len(sr.Cells) != 1 || sr.Cells[0] != si {
			t.Fatalf("shard %d owns cells %v, want [%d]", si, sr.Cells, si)
		}
		if len(sr.RANs) != 1 || sr.RANs[0] == nil {
			t.Fatalf("shard %d has RANs %v", si, sr.RANs)
		}
		if sr.Prober == nil || len(sr.Prober.Results) == 0 {
			t.Fatalf("shard %d prober collected nothing", si)
		}
	}
	if tr.Sim != tr.Shards[0].Sim || tr.RAN != tr.Shards[0].RANs[0] {
		t.Fatal("top-level result aliases do not point at shard 0")
	}
}

// TestShardedHandoverDelivers checks a handover UE keeps its session: it
// delivers media both before and after the scripted cell change, and its
// packet stream carries TBs from both cells.
func TestShardedHandoverDelivers(t *testing.T) {
	top := shortShardedTopology(5)
	top.Serial = true
	tr := RunTopology(top)

	u := tr.UEs[5] // home cell 2, hands over to cell 1
	ho := top.UEs[5].Handovers[0].At
	var before, after int
	cellsSeen := map[uint32]bool{}
	for _, v := range u.Report.Packets {
		if !v.SeenCore || !v.SeenRecv {
			continue
		}
		if v.SentAt < ho {
			before++
		} else {
			after++
		}
		for _, id := range v.TBIDs {
			cellsSeen[uint32(id>>48)] = true
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("handover UE delivered before=%d after=%d packets", before, after)
	}
	if !cellsSeen[2] || !cellsSeen[1] {
		t.Fatalf("handover UE's TBs span cells %v, want both 2 and 1", cellsSeen)
	}
	// The handover united cells 1 and 2 into one shard; cell 0 is alone.
	if len(tr.Shards) != 2 {
		t.Fatalf("handover topology produced %d shards, want 2", len(tr.Shards))
	}
	if got := tr.Shards[1].Cells; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("united shard owns cells %v, want [1 2]", got)
	}
}

// TestInterferenceCouplingHasEffect guards the coupling term against
// silently becoming a no-op: the same deployment with and without
// coupling must diverge (neighbor load shrinks capacity), while
// coupling zero must keep the barrier entirely out of the event stream.
func TestInterferenceCouplingHasEffect(t *testing.T) {
	with := shortShardedTopology(3)
	without := shortShardedTopology(3)
	without.InterferenceCoupling = 0
	if RunTopology(with).Digest() == RunTopology(without).Digest() {
		t.Fatal("interference coupling changed nothing — the capacity term is dead")
	}
}

// TestShardedDeterministicAcrossRuns: two identical parallel runs agree
// — the gang's wall-clock scheduling must leak nothing into the digest.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a := RunTopology(shortShardedTopology(42)).Digest()
	b := RunTopology(shortShardedTopology(42)).Digest()
	if a != b {
		t.Fatalf("two parallel sharded runs diverged: %s vs %s", a, b)
	}
}
