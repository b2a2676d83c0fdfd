package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/ran"
	"athena/internal/units"
)

// shortShardedTopology builds a 6-UE / 3-cell topology with one UE that
// hands over between cells 2 and 1 mid-run. The handover unites cells 1
// and 2 into one domain while cell 0 stays independent, so the plan has
// two shards — parallel runs are genuinely exercised alongside the
// handover.
func shortShardedTopology(seed int64) Topology {
	top := NewMultiCellTopology(6, 3)
	top.Seed = seed
	top.Duration = 3 * time.Second
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
// sharded engine: serial and parallel shard runs must produce
// byte-identical digests, across seeds, with a handover in play — and at
// deployment scale, on two shards.
func TestShardedDigestsMatchSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(seed int64) Topology
		seeds []int64
	}{
		{"6ue-3cell-handover", shortShardedTopology, []int64{1, 7, 1234}},
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
// must reproduce them — the shard plumbing is execution-only. Spelling the implicit cell out must change
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
		// Encoder-noise floats are not FMA-pinned off amd64 (ROADMAP item 14).
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

// TestEventAndTBCountsPinned pins what one small serial run costs the
// simulator: the events its engines fire (the counters the benchmark's
// sim.events_per_ue_s reads) and the transport blocks its cells send. An
// event-path change that keeps every digest still moves these numbers.
// It also pins the run's memory: the allocations it makes and the bytes
// they take (±1 %), and the heap it leaves behind while its result is
// held (±2 %). Those depend on the runtime (its maps, above all), so
// they are checked only on the toolchain they were measured with,
// memToolchain, and logged on any other. Across runs in one process the
// first two repeat within 0.05 % and the third within 1 %; -race moves
// each by under 0.5 %.
func TestEventAndTBCountsPinned(t *testing.T) {
	const wantEvents, wantTBs = 35841, 6921
	const memToolchain = "go1.24.0"
	const wantMallocs, wantAllocated, wantRetained = 87_170, 14_150_000, 4_640_000
	top := NewMultiCellTopology(16, 2)
	top.Seed = 1
	top.Duration = 2 * time.Second
	top.Serial = true
	fired := func() (n int64) {
		for name, v := range obs.TakeSnapshot().Counters {
			if strings.HasPrefix(name, "sim.") && strings.HasSuffix(name, "events_fired") {
				n += v
			}
		}
		return n
	}
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	before := fired()
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr := RunTopology(top)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	events := fired() - before
	tbs := 0
	for _, sr := range tr.Shards {
		for _, cell := range sr.RANs {
			tbs += len(cell.Telemetry.Records)
		}
	}
	mallocs, allocated := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	retained := int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("%d events, %d TBs, %d mallocs, %d bytes allocated, %d bytes retained", events, tbs, mallocs, allocated, retained)
	// Frame sizes are not FMA-pinned off amd64 (ROADMAP item 14), and
	// packet counts follow them.
	if runtime.GOARCH != "amd64" {
		return
	}
	if events != wantEvents || tbs != wantTBs {
		t.Errorf("%d events and %d TBs, want %d and %d", events, tbs, wantEvents, wantTBs)
	}
	if v := runtime.Version(); v != memToolchain {
		t.Logf("memory pins measured with %s, not checked on %s", memToolchain, v)
		return
	}
	within := func(what string, got, want int64, tol float64) {
		if d := float64(got-want) / float64(want); d > tol || d < -tol {
			t.Errorf("%s %d, want %d ±%.0f%%", what, got, want, 100*tol)
		}
	}
	within("mallocs", int64(mallocs), wantMallocs, 0.01)
	within("bytes allocated", int64(allocated), wantAllocated, 0.01)
	within("bytes retained", retained, wantRetained, 0.02)
}

// TestShortSchedDelayDigestsPinned covers a grant order no registry
// artifact reaches: a BSR delay of at most one UL period, where a grant
// filed in one slot is due in the next and queues behind the grants that
// slot carries over. Cross traffic overloads cell 0 for a second so the
// per-UE backlogs run deep; a handover clears one UE's queues mid-run.
// The literals were recorded from the cell-wide pending-grant list that
// the per-UE grant queues replaced.
func TestShortSchedDelayDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg   ran.Config
		delay time.Duration
		sched ran.SchedulerKind
		mix   bool
		want  string
	}{
		{ran.Defaults(), 500 * time.Microsecond, ran.SchedCombined, true, "794fc7a8c83b1739386ccb1315eb62cc4d8f18b1b7bf69b3a34538213ee1594a"},
		{ran.Defaults(), time.Millisecond, ran.SchedAppAware, false, "04a93ef68c6eae27cddabd28dad091df76a6e26a17e5fb5abb923164755a41bb"},
		{ran.Defaults(), 2500 * time.Microsecond, ran.SchedPredictive, true, "446bcec796e551b1dac8258a8ce39e9feea17360894e53c8eaccf65b2dca10d8"},
		{ran.LTEDefaults(), time.Millisecond, ran.SchedQoEAware, true, "4b7eeba408b20347011a8a279a6a75c86211f60713e025de89d969b295f4016d"},
	} {
		top := NewMultiCellTopology(8, 2)
		top.Seed = 5
		top.Duration = 3 * time.Second
		top.RAN = tc.cfg
		top.RAN.SchedDelay = tc.delay
		top.RAN.BLER = 0.1
		top.Cells[0].CrossUEs = 3
		top.Cells[0].CrossPhases = []ran.CrossPhase{
			{Start: 0, Rate: 6 * units.Mbps}, {Start: time.Second, Rate: 30 * units.Mbps}, {Start: 2 * time.Second, Rate: 2 * units.Mbps},
		}
		if tc.mix {
			top.MixWorkloads()
		}
		for i := range top.UEs {
			top.UEs[i].Sched = tc.sched
			top.UEs[i].AttachMeta = i%2 == 0
		}
		top.UEs[0].Handovers = []Handover{{At: 1500 * time.Millisecond, ToCell: 1}}
		got := RunTopology(top).Digest()
		// Encoder-noise floats are not FMA-pinned off amd64 (ROADMAP item 14).
		if runtime.GOARCH == "amd64" && got != tc.want {
			t.Errorf("%v, SchedDelay %v, %v: digest %s, want %s", tc.cfg.Duplex, tc.delay, tc.sched, got, tc.want)
		}
	}
}

// TestLiveDigestsPinned pins streaming behaviour across commits: each
// literal folds the live-replay digest of every UE's session stream, in
// UE order, at one tick. Most of these streams hold packets past the
// flush horizon, so they differ from offline (differ counts them) and the
// literals pin horizon expiry, not only the streamed ≡ offline case.
func TestLiveDigestsPinned(t *testing.T) {
	vca := NewMultiCellTopology(24, 1)
	vca.Duration = 2 * time.Second
	mixed := NewMultiCellTopology(8, 2)
	mixed.Duration = 4 * time.Second
	mixed.MixWorkloads()
	for _, tc := range []struct {
		name   string
		top    Topology
		tick   time.Duration
		differ int
		want   string
	}{
		{"24ue-vca-10ms", vca, 10 * time.Millisecond, 24, "e92c904761b0c9dca5ceac1b14b203339e56f0cd9a6ffed402d213a87f5779c0"},
		{"24ue-vca-100ms", vca, 100 * time.Millisecond, 24, "b9f346d258978c5bb5934fc7959dcf341e90bbb2d5c6a3128aa73e4fdc497e32"},
		{"8ue-mixed-10ms", mixed, 10 * time.Millisecond, 2, "3ccc54702ef64eaeb8cbf872eaf916853235214b74be1c5723fd54815d826e70"},
	} {
		h := sha256.New()
		differ := 0
		for _, ss := range RunTopology(tc.top).SessionStreams() {
			live, _ := replayDigest(t, ss, tc.tick)
			if live != core.Correlate(ss.Input).PacketsDigest() {
				differ++
			}
			fmt.Fprintf(h, "%s %s\n", ss.ID, live)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if differ != tc.differ {
			t.Errorf("%s: %d streams differ from offline, want %d", tc.name, differ, tc.differ)
		}
		// Encoder-noise floats are not FMA-pinned off amd64 (ROADMAP item 14).
		if runtime.GOARCH == "amd64" && got != tc.want {
			t.Errorf("%s: live digest %s, pinned %s", tc.name, got, tc.want)
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

// TestShardedDeterministicAcrossRuns: two identical parallel runs agree
// — goroutine scheduling must leak nothing into the digest.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	a := RunTopology(shortShardedTopology(42)).Digest()
	b := RunTopology(shortShardedTopology(42)).Digest()
	if a != b {
		t.Fatalf("two parallel sharded runs diverged: %s vs %s", a, b)
	}
}
