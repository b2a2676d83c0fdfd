package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/ran"
	"athena/internal/units"
)

// The scenario package's behavioural contracts, stated once over one
// corpus. Every entry runs as written (its shards in parallel) and once
// per variant that applies to it: serially, again in parallel, with its
// implicit cell spelled out, with its implicit VCA workload spelled out.
// All runs of an entry must digest alike and have the entry's number of
// shards; on amd64 the digest must equal the entry's literal (encoder-
// noise floats are not FMA-pinned elsewhere, ROADMAP item 14). Then every
// UE's session stream, replayed live at each of the entry's ticks, must
// emit each packet once and digest-match the offline correlation of the
// same feed, except for the pinned number of streams that hold packets
// past the flush horizon; those fold into the pinned live literal.
//
// The literals predate their tests' present form: the 3-UE, 8-UE mixed
// and cross-traffic cells are TopologyResult.Digest() as the deleted
// single-cell engine produced it (commit fadc9a7); the short-SchedDelay
// cells were recorded from the cell-wide pending-grant list the per-UE
// grant queues replaced; the rest were recorded when the per-package
// equivalence tests were folded into this table. A change that means to
// move one says why.

// liveCheck is one live replay of every stream of an entry: differ
// streams digest unlike offline, and when want is set the streams' live
// digests, folded in UE order, hash to it.
type liveCheck struct {
	tick   time.Duration
	differ int
	want   string
}

type corpusEntry struct {
	name   string
	top    Topology
	shards int
	want   string
	live   []liveCheck
}

// corpus is every topology the contracts are checked on: single-cell VCA
// (one under the BSR-only scheduler) and mixed cells, cross traffic, a
// 3-cell handover on two shards at three seeds, the 100-UE
// paired-handover deployment, a mixed 2-cell run, the short-SchedDelay
// grant orders no registry artifact reaches, and a saturated 24-UE cell
// whose streams outlive the flush horizon.
func corpus() []corpusEntry {
	cross := mixedTopology(4, 3*time.Second)
	cross.CrossUEs = 2
	cross.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 4 * units.Mbps}}
	mixed2 := NewMultiCellTopology(8, 2)
	mixed2.Duration = 4 * time.Second
	mixed2.MixWorkloads()
	saturated := NewMultiCellTopology(24, 1)
	saturated.Duration = 2 * time.Second
	// 100 UEs round-robin over 4 cells, the first four handing over to
	// their paired cell (2k ↔ 2k+1): the handover domains stay at two
	// cells each, so the run keeps two shards.
	paired := NewMultiCellTopology(100, 4)
	paired.Duration = 2 * time.Second
	for i := 0; i < 4; i++ {
		paired.UEs[i].Handovers = []Handover{{At: time.Second, ToCell: i ^ 1}}
	}
	every := func(tick time.Duration) []liveCheck { return []liveCheck{{tick: tick}} }
	bsrOnly := NewTopology(2)
	bsrOnly.Seed = 42
	bsrOnly.Duration = 2 * time.Second
	for i := range bsrOnly.UEs {
		bsrOnly.UEs[i].Sched = ran.SchedBSROnly
	}

	entries := []corpusEntry{
		{"3ue-vca", shortMultiTopology(3), 1, "b5157cc231a96af1e5cc47f41c37c29bd5a7baee445ae6a4cae3899185e22321", every(50 * time.Millisecond)},
		{"2ue-vca-bsr-only", bsrOnly, 1, "c16721abc9525d7f39dd05491b8324af306634c5880363efeef44d7721bc2158", every(50 * time.Millisecond)},
		{"8ue-mixed", mixedTopology(8, 2*time.Second), 1, "d632faa53e0d223bfd57f389b0849202121c4d2e20c5caa54f8213851594cd11", every(100 * time.Millisecond)},
		{"4ue-mixed-cross", cross, 1, "eba0f009719816fe8bfd204dde4f2d36dc124631d24447fd6260278c516ba626", every(100 * time.Millisecond)},
		{"6ue-3cell-handover-s1", shortShardedTopology(1), 2, "bcd11f7ba1178824daa1c9edd6bbdce6ed8afff40ec82b56cacefb7fda3e47a3", every(100 * time.Millisecond)},
		{"6ue-3cell-handover-s7", shortShardedTopology(7), 2, "584c92dfc9fdef5dda62386758915f5aa12f77a495007c607c373ee9ba974191", every(100 * time.Millisecond)},
		{"6ue-3cell-handover-s1234", shortShardedTopology(1234), 2, "a3dbee7e696fd7f4e90c9de42a4904c1a982fd83512b30b9bb92a6c4d649d4cc", every(100 * time.Millisecond)},
		{"100ue-4cell-paired", paired, 2, "da407f389e1766958c2c76d71e829489e3ac1ffeed6a7a0384321e14661e5477", every(100 * time.Millisecond)},
		{"8ue-2cell-mixed", mixed2, 2, "79290f9a1bc155b1953ffd22c0a2573bb8f20ee7bbcf466c413a2c7ec5c7df00", []liveCheck{{10 * time.Millisecond, 2, "3ccc54702ef64eaeb8cbf872eaf916853235214b74be1c5723fd54815d826e70"}}},
		{"24ue-vca", saturated, 1, "d3a356a111000116231c35936e14c7cc471fe63ecaf9bc00a1705f9d38f78db4", []liveCheck{
			{10 * time.Millisecond, 24, "e92c904761b0c9dca5ceac1b14b203339e56f0cd9a6ffed402d213a87f5779c0"},
			{100 * time.Millisecond, 24, "b9f346d258978c5bb5934fc7959dcf341e90bbb2d5c6a3128aa73e4fdc497e32"},
		}},
	}
	// A BSR delay of at most one UL period, which no registry artifact
	// reaches: a grant filed in one slot is due in the next and queues
	// behind the grants that slot carries over. Cross traffic overloads
	// cell 0 for a second so the per-UE backlogs run deep; a handover
	// clears one UE's queues mid-run (and puts both cells in one shard).
	for _, sd := range []struct {
		name  string
		cfg   ran.Config
		delay time.Duration
		sched ran.SchedulerKind
		mix   bool
		want  string
		live  liveCheck
	}{
		{"sched-500us-combined", ran.Defaults(), 500 * time.Microsecond, ran.SchedCombined, true, "794fc7a8c83b1739386ccb1315eb62cc4d8f18b1b7bf69b3a34538213ee1594a", liveCheck{tick: 100 * time.Millisecond}},
		{"sched-1ms-appaware", ran.Defaults(), time.Millisecond, ran.SchedAppAware, false, "04a93ef68c6eae27cddabd28dad091df76a6e26a17e5fb5abb923164755a41bb", liveCheck{tick: 100 * time.Millisecond}},
		{"sched-2500us-predictive", ran.Defaults(), 2500 * time.Microsecond, ran.SchedPredictive, true, "446bcec796e551b1dac8258a8ce39e9feea17360894e53c8eaccf65b2dca10d8", liveCheck{tick: 100 * time.Millisecond}},
		{"sched-1ms-qoeaware-lte", ran.LTEDefaults(), time.Millisecond, ran.SchedQoEAware, true, "4b7eeba408b20347011a8a279a6a75c86211f60713e025de89d969b295f4016d",
			liveCheck{100 * time.Millisecond, 2, "ea94ed5bae127a97e64fea6f3657c400bd2b0e9c0d0ec138ed8b07f262fa28b0"}},
	} {
		top := NewMultiCellTopology(8, 2)
		top.Seed = 5
		top.Duration = 3 * time.Second
		top.RAN = sd.cfg
		top.RAN.SchedDelay = sd.delay
		top.RAN.BLER = 0.1
		top.Cells[0].CrossUEs = 3
		top.Cells[0].CrossPhases = []ran.CrossPhase{
			{Start: 0, Rate: 6 * units.Mbps}, {Start: time.Second, Rate: 30 * units.Mbps}, {Start: 2 * time.Second, Rate: 2 * units.Mbps},
		}
		if sd.mix {
			top.MixWorkloads()
		}
		for i := range top.UEs {
			top.UEs[i].Sched = sd.sched
			top.UEs[i].AttachMeta = i%2 == 0
		}
		top.UEs[0].Handovers = []Handover{{At: 1500 * time.Millisecond, ToCell: 1}}
		entries = append(entries, corpusEntry{sd.name, top, 1, sd.want, []liveCheck{sd.live}})
	}
	return entries
}

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

// variants rewrite an entry's topology into a run that must digest like
// it; ok is false where the rewrite does not apply.
var variants = []struct {
	name  string
	apply func(top Topology) (_ Topology, ok bool)
}{
	{"serial", func(top Topology) (Topology, bool) { top.Serial = true; return top, true }},
	{"repeat", func(top Topology) (Topology, bool) { return top, true }},
	{"one-cell", func(top Topology) (Topology, bool) {
		ok := top.Cells == nil
		top.Cells = []CellSpec{{CrossUEs: top.CrossUEs, CrossPhases: top.CrossPhases}}
		return top, ok
	}},
	{"vca", func(top Topology) (Topology, bool) {
		top.UEs = slices.Clone(top.UEs)
		ok := false
		for i := range top.UEs {
			if top.UEs[i].Workload == "" {
				top.UEs[i].Workload, ok = WorkloadVCA, true
			}
		}
		return top, ok
	}},
}

func TestTopologyDigestsPinned(t *testing.T) {
	for _, e := range corpus() {
		t.Run(e.name, func(t *testing.T) {
			ref := RunTopology(e.top)
			want := ref.Digest()
			if len(ref.Shards) != e.shards {
				t.Fatalf("%d shards, want %d", len(ref.Shards), e.shards)
			}
			if e.top.Cells == nil && len(ref.Top.Cells) != 1 {
				t.Errorf("the implicit cell ran as %d cells", len(ref.Top.Cells))
			}
			if runtime.GOARCH == "amd64" && want != e.want {
				t.Errorf("digest %s, pinned %s", want, e.want)
			}
			for _, v := range variants {
				top, ok := v.apply(e.top)
				if !ok {
					continue
				}
				t.Run(v.name, func(t *testing.T) {
					res := RunTopology(top)
					if len(res.Shards) != e.shards {
						t.Errorf("%d shards, want %d", len(res.Shards), e.shards)
					}
					if got := res.Digest(); got != want {
						t.Errorf("digest %s, the parallel run digested %s", got, want)
					}
				})
			}
			for _, lc := range e.live {
				t.Run(fmt.Sprintf("live-%v", lc.tick), func(t *testing.T) { checkLive(t, ref, lc) })
			}
		})
	}
}

// checkLive replays every stream of res at lc.tick. Each stream's feed is
// first held to the run's own correlation (the tap reproduces its input),
// then its live replay must emit every sent packet exactly once and drain.
func checkLive(t *testing.T, res *TopologyResult, lc liveCheck) {
	streams := res.SessionStreams()
	if len(streams) != len(res.UEs) {
		t.Fatalf("%d streams for %d UEs", len(streams), len(res.UEs))
	}
	fold := sha256.New()
	differ := 0
	for _, ss := range streams {
		if len(ss.Input.Sender) == 0 {
			t.Fatalf("stream %s: empty sender feed", ss.ID)
		}
		offline := core.Correlate(ss.Input)
		run := res.UEs[ss.UE].Report.Packets
		if len(offline.Packets) != len(run) {
			t.Fatalf("stream %s: %d packets vs the run's %d", ss.ID, len(offline.Packets), len(run))
		}
		for i, v := range offline.Packets {
			if r := run[i]; v.Flow != r.Flow || v.Seq != r.Seq || v.Kind != r.Kind || v.ULDelay != r.ULDelay ||
				v.QueueWait != r.QueueWait || v.HARQDelay != r.HARQDelay || v.SeenCore != r.SeenCore {
				t.Fatalf("stream %s packet %d diverges from the run's report", ss.ID, i)
			}
		}
		vh := core.NewViewHasher()
		n := 0
		live := core.NewLive(ss.Input, func(v core.PacketView) { vh.Add(v); n++ })
		if err := ss.Replay(live, lc.tick); err != nil {
			t.Fatalf("stream %s: %v", ss.ID, err)
		}
		if p := live.Snapshot().Pending; p != 0 || n != len(ss.Input.Sender) {
			t.Fatalf("stream %s: emitted %d of %d packets, %d pending", ss.ID, n, len(ss.Input.Sender), p)
		}
		d := vh.Sum()
		if d != offline.PacketsDigest() {
			differ++
		}
		fmt.Fprintf(fold, "%s %s\n", ss.ID, d)
	}
	got := hex.EncodeToString(fold.Sum(nil))
	if differ != lc.differ {
		t.Errorf("%d streams differ from offline, want %d", differ, lc.differ)
	}
	if lc.want != "" && runtime.GOARCH == "amd64" && got != lc.want {
		t.Errorf("live digest %s, pinned %s", got, lc.want)
	}
}
