package scenario

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/ran"
	"athena/internal/units"
)

// TestEventAndTBCountsPinned pins what small serial runs cost the
// simulator: the events their engines fire (the counters the benchmark's
// sim.events_per_ue_s reads) and the transport blocks their cells send.
// An event-path change that keeps every digest still moves these numbers.
// Two rows are multi-cell deployments; two are registry artifacts' runs
// at Scale 0.02, built as their generators build them: F3's single UE
// under cross-traffic phases (the figure path, downlink included) and
// M2's PHY-aware GCC on a loaded cell (the telemetry-fed controller).
// It also pins each run's memory: the allocations it makes and the bytes
// they take (±1 %), and the heap it leaves behind while its result is
// held (±2 %). Those depend on the runtime (its maps, above all), so
// they are checked only on the toolchain they were measured with,
// memToolchain, and logged on any other. Across runs in one process the
// first two repeat within 0.05 % and the third within 1 %. -race adds
// 3–20 KB to the bytes allocated (under 0.3 %); the pins sit midway
// between the plain and the -race measurement.
func TestEventAndTBCountsPinned(t *testing.T) {
	const memToolchain = "go1.24.0"
	multi := func(ues int, mixed bool) Topology {
		top := NewMultiCellTopology(ues, 2)
		if mixed {
			top.MixWorkloads()
		}
		top.Seed = 1
		top.Duration = 2 * time.Second
		return top
	}
	// scaled is experiment.Options.Scaled at Scale 0.02.
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * 0.02) }
	f3 := Defaults()
	f3.Seed = 1
	f3.Duration = scaled(2 * time.Minute)
	f3.TwoParty = true
	f3.CrossUEs = 6
	q := f3.Duration / 4
	f3.CrossPhases = []ran.CrossPhase{
		{Start: 0, Rate: 0},
		{Start: q, Rate: 14 * units.Mbps},
		{Start: 2 * q, Rate: 16 * units.Mbps},
		{Start: 3 * q, Rate: 18 * units.Mbps},
	}
	m2 := Defaults()
	m2.Seed = 1
	m2.Duration = scaled(60 * time.Second)
	m2.Controller = CtlPHYAware
	m2.CrossUEs = 6
	m2.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 16 * units.Mbps}}
	for _, tc := range []struct {
		name                         string
		top                          Topology
		events, tbs                  int64
		mallocs, allocated, retained int64
	}{
		{"16ue-2cell-vca", multi(16, false), 25394, 6921, 27_390, 9_510_000, 4_200_000},
		{"8ue-2cell-mixed", multi(8, true), 20284, 6087, 16_950, 5_708_500, 2_103_500},
		{"F3", SingleUE(f3), 16561, 2158, 9_538, 1_942_400, 842_000},
		{"M2-gcc-phy+load", SingleUE(m2), 10244, 1159, 5_308, 1_016_500, 491_200},
	} {
		top := tc.top
		top.Serial = true
		events, tbs, mallocs, allocated, retained := runCost(top)
		t.Logf("%s: %d events, %d TBs, %d mallocs, %d bytes allocated, %d bytes retained",
			tc.name, events, tbs, mallocs, allocated, retained)
		// Frame sizes are not FMA-pinned off amd64 (ROADMAP item 14), and
		// packet counts follow them.
		if runtime.GOARCH != "amd64" {
			continue
		}
		if events != tc.events || tbs != tc.tbs {
			t.Errorf("%s: %d events and %d TBs, want %d and %d", tc.name, events, tbs, tc.events, tc.tbs)
		}
		if v := runtime.Version(); v != memToolchain {
			t.Logf("memory pins measured with %s, not checked on %s", memToolchain, v)
			continue
		}
		within := func(what string, got, want int64, tol float64) {
			if d := float64(got-want) / float64(want); d > tol || d < -tol {
				t.Errorf("%s: %s %d, want %d ±%.0f%%", tc.name, what, got, want, 100*tol)
			}
		}
		within("mallocs", mallocs, tc.mallocs, 0.01)
		within("bytes allocated", allocated, tc.allocated, 0.01)
		within("bytes retained", retained, tc.retained, 0.02)
	}
}

// runCost runs top once and reports the events its engines fired, the
// TBs its cells sent, the mallocs and bytes the run allocated, and the
// heap it retains while its result is held.
func runCost(top Topology) (events, tbs, mallocs, allocated, retained int64) {
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
	events = fired() - before
	for _, sr := range tr.Shards {
		for _, cell := range sr.RANs {
			tbs += int64(len(cell.Telemetry.Records))
		}
	}
	runtime.KeepAlive(tr)
	return events, tbs, int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc),
		int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
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
