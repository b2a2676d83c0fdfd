package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/probe"
	"athena/internal/ran"
	"athena/internal/sim"
)

// Multi-cell scenario metrics.
var (
	metHandovers   = obs.NewCounter("scenario.handovers")
	metShardCount  = obs.NewGauge("scenario.shards")
	metShardedRuns = obs.NewCounter("scenario.sharded_runs")
)

// CellSpec describes one cell of a Topology. Every cell runs
// Topology.RAN with CellID set to the cell's index.
type CellSpec struct {
	// CrossUEs / CrossPhases attach synthetic cross-traffic load to this
	// cell (flow IDs are blocked per cell so captures stay disjoint).
	CrossUEs    int
	CrossPhases []ran.CrossPhase
}

// Handover scripts one cell change for a UE: at virtual time At the UE
// detaches from its current cell (grant gap + HARQ reset), and
// handoverGap later attaches to cell ToCell with its buffer intact.
type Handover struct {
	At     time.Duration
	ToCell int
}

// ShardResult is one shard's slice of a topology run: the cells it
// simulated (none off the Access5G path), its engine, and its private
// wired path and captures.
type ShardResult struct {
	Cells  []int // global cell indices, ascending
	Sim    *sim.Simulator
	RANs   []*ran.RAN // parallel to Cells
	Prober *probe.Prober

	CapCore, CapSFU *packet.Capture

	// UEs are this shard's UE results, in global index order.
	UEs []*UEResult
}

// NewMultiCellTopology returns a topology of ues default VCA UEs spread
// round-robin across cells default cells.
func NewMultiCellTopology(ues, cells int) Topology {
	top := NewTopology(ues)
	top.Cells = make([]CellSpec, cells)
	for i := range top.UEs {
		top.UEs[i].Cell = i % cells
	}
	return top
}

// shardPlan is one handover domain: the cells that must share a
// simulation engine (because some UE can hand over between them) and the
// UEs homed on those cells. Cell and UE indices are global and ascending.
type shardPlan struct {
	cells []int
	ues   []int
}

// planShards partitions the topology's cells into handover domains with
// a union-find over the handover scripts: a UE's endpoint pipeline is
// bound to one engine, so every cell it can visit must live on that
// engine. UEs that never hand over leave their cells disconnected, and a
// fully static N-cell topology yields N independent shards. Shards are
// ordered by their smallest cell index, so shard 0 always contains cell
// 0 — the plan is a pure function of the Topology value. Off the RAN
// path there are no cells: one shard holds every UE.
func planShards(top Topology) []shardPlan {
	if !top.onRANPath() {
		all := make([]int, len(top.UEs))
		for i := range all {
			all[i] = i
		}
		return []shardPlan{{ues: all}}
	}
	n := len(top.Cells)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // smaller root wins: stable shard ordering
		}
	}
	for _, u := range top.UEs {
		for _, h := range u.Handovers {
			union(u.Cell, h.ToCell)
		}
	}
	shardOfRoot := make(map[int]int)
	var plans []shardPlan
	for ci := 0; ci < n; ci++ {
		root := find(ci)
		si, ok := shardOfRoot[root]
		if !ok {
			si = len(plans)
			shardOfRoot[root] = si
			plans = append(plans, shardPlan{})
		}
		plans[si].cells = append(plans[si].cells, ci)
	}
	for ui, u := range top.UEs {
		si := shardOfRoot[find(u.Cell)]
		plans[si].ues = append(plans[si].ues, ui)
	}
	return plans
}

// shardSeed derives shard si's engine seed from the master seed. Shard 0
// keeps the master seed itself: a single-shard run is seeded by
// Topology.Seed, as the golden-compat reference expects.
func shardSeed(seed int64, si int) int64 {
	return seed + int64(si)*1_000_003
}

// handoverGap is the service interruption of a handover: the UE is
// detached (no grants, HARQ reset) for this long before attaching to the
// target cell, covering the grant gap plus the buffered-data transfer.
const handoverGap = 20 * time.Millisecond

// RunTopology executes a testbed and correlates each UE's traces: build
// one engine per handover domain (a single one for one cell or a non-RAN
// access), run each to the horizon (each on its own goroutine unless
// top.Serial), then correlate each shard and assemble the global result.
// Deterministic in Topology alone: shards share no state, construction
// is serial in shard order, and every engine is seeded from the master
// seed by shardSeed — so serial and parallel runs produce byte-identical
// digests.
//
// An invalid topology is the caller's bug by the time it gets here:
// RunTopology panics with the error Validate returns. Callers holding a
// user-supplied configuration call Validate first.
func RunTopology(top Topology) *TopologyResult {
	if err := top.Validate(); err != nil {
		panic(err)
	}
	top, builds := simulate(top)
	for _, b := range builds {
		b.correlate()
	}
	return assemble(top, builds)
}

// simulate normalises a valid topology once — default UE and the
// implicit cell of a cell-less Access5G topology — and runs the
// simulation stages of every shard, leaving the correlation stage to the
// caller (RunTopology, or a benchmark that times it in isolation).
func simulate(top Topology) (Topology, []*build) {
	if len(top.UEs) == 0 {
		u := DefaultUE()
		u.Seed = top.Seed
		top.UEs = []UESpec{u}
	}
	if len(top.Cells) == 0 && top.onRANPath() {
		top.Cells = []CellSpec{{CrossUEs: top.CrossUEs, CrossPhases: top.CrossPhases}}
	}
	metShardedRuns.Inc()

	plans := planShards(top)
	metShardCount.Set(int64(len(plans)))
	builds := make([]*build, len(plans))
	for si, plan := range plans {
		b := newBuildFor(top, shardSeed(top.Seed, si), plan)
		b.s.Label(fmt.Sprintf("shard%d", si))
		b.buildWiredPath()
		b.buildAccess()
		for _, ub := range b.ues {
			b.buildEndpoint(ub)
		}
		b.buildProbes()
		b.scheduleHandovers()
		b.start()
		builds[si] = b
	}

	if top.Serial || len(builds) == 1 {
		for _, b := range builds {
			b.s.RunUntil(top.Duration)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(builds))
		for _, b := range builds {
			go func() {
				defer wg.Done()
				b.s.RunUntil(top.Duration)
			}()
		}
		wg.Wait()
	}
	for _, b := range builds {
		b.stop()
	}
	return top, builds
}

// scheduleHandovers installs each UE's scripted cell changes. The
// detach is immediate (grant gap begins, downlink reroutes to the
// target cell); the uplink attachment to the target completes
// handoverGap later with the UE's buffer — including bytes reclaimed by
// the HARQ reset — intact.
func (b *build) scheduleHandovers() {
	for _, ub := range b.ues {
		ub := ub
		for _, h := range ub.spec.Handovers {
			h := h
			b.s.At(h.At, func() {
				if h.ToCell == ub.curCell {
					return
				}
				src := b.cellByGlobal[ub.curCell]
				dst := b.cellByGlobal[h.ToCell]
				src.Detach(ub.ranUE)
				ub.curCell = h.ToCell
				ub.servingCell = dst
				metHandovers.Inc()
				b.s.After(handoverGap, func() { dst.AttachExisting(ub.ranUE) })
			})
		}
	}
}

// assemble merges per-shard builds into the global result. UE results
// land at their global index; the top-level infrastructure pointers
// alias shard 0, which by construction holds cell 0.
func assemble(top Topology, builds []*build) *TopologyResult {
	res := &TopologyResult{
		Top: top,
		UEs: make([]*UEResult, len(top.UEs)),
	}
	for _, b := range builds {
		res.Shards = append(res.Shards, b.res)
		for _, ub := range b.ues {
			res.UEs[ub.idx] = ub.res
		}
	}
	first := res.Shards[0]
	res.Sim = first.Sim
	res.Prober = first.Prober
	res.CapCore = first.CapCore
	res.CapSFU = first.CapSFU
	if len(first.RANs) > 0 {
		res.RAN = first.RANs[0]
	}
	return res
}

// Digest hashes every determinism-relevant output of the run: per-shard
// probe one-way delays and, per UE, the correlated packet stream with
// its delay attribution plus the receiver-side QoE aggregates. Two runs
// of the same Topology — serial or sharded, any worker count — must
// produce equal digests; nothing wall-clock- or scheduling-dependent is
// hashed.
func (tr *TopologyResult) Digest() string {
	h := sha256.New()
	for si, sr := range tr.Shards {
		fmt.Fprintf(h, "shard=%d probe=%v\n", si, sr.Prober.OWDsMS())
	}
	for _, u := range tr.UEs {
		writeUEDigest(h, u)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeUEDigest renders one UE's correlated output. VCA UEs keep the
// historical receiver-aggregate trailer byte for byte; the other
// workload families render their canonical QoE score instead.
func writeUEDigest(w io.Writer, u *UEResult) {
	fmt.Fprintf(w, "ue=%d flows=%v packets=%d\n", u.ID, u.Flows.All(), len(u.Report.Packets))
	// One line per packet, "flow/seq/kind sent=… core=… recv=… ul=…
	// tbs=[…]" (nanosecond integers), appended into one reused buffer:
	// fmt would cost a fifth of a serial run.
	var line []byte
	for _, v := range u.Report.Packets {
		line = strconv.AppendUint(line[:0], uint64(v.Flow), 10)
		line = append(line, '/')
		line = strconv.AppendUint(line, uint64(v.Seq), 10)
		line = append(line, '/')
		line = append(line, v.Kind.String()...)
		line = append(line, " sent="...)
		line = strconv.AppendInt(line, int64(v.SentAt), 10)
		line = append(line, " core="...)
		line = strconv.AppendInt(line, int64(v.CoreAt), 10)
		line = append(line, " recv="...)
		line = strconv.AppendInt(line, int64(v.ReceiverAt), 10)
		line = append(line, " ul="...)
		line = strconv.AppendInt(line, int64(v.ULDelay), 10)
		line = append(line, " tbs=["...)
		for i, id := range v.TBIDs {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendUint(line, id, 10)
		}
		line = append(line, "]\n"...)
		w.Write(line)
	}
	if u.Receiver != nil {
		fmt.Fprintf(w, "rates=%v jitter=%v stalls=%d\n",
			u.Receiver.ReceiveRates(), u.Receiver.FrameJitter, u.Receiver.Renderer.Stalls)
		return
	}
	fmt.Fprintf(w, "workload=%s score=%s\n", u.Workload, u.Score)
}
