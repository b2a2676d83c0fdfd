package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"athena/internal/cc"
	"athena/internal/cc/gcc"
	"athena/internal/cc/l4s"
	"athena/internal/cc/pcc"
	"athena/internal/cc/phyaware"
	"athena/internal/clock"
	"athena/internal/core"
	"athena/internal/netem"
	"athena/internal/packet"
	"athena/internal/probe"
	"athena/internal/ran"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/telemetry"
	"athena/internal/units"
	"athena/internal/vca"
	"athena/internal/wifi"
)

// UESpec describes one participant in a Topology: its application
// workload (the VCA endpoint by default), endpoint pipeline knobs,
// clock errors, and scheduling strategy. Flow identifiers are derived
// from the UE's index (see UEFlowIDs), so specs compose without manual
// SSRC bookkeeping.
type UESpec struct {
	// Workload selects this UE's application family. Empty means
	// WorkloadVCA — the historical conferencing endpoint, byte-identical
	// to the pre-workload pipeline. The non-VCA families require the
	// Access5G path and ignore the VCA-specific knobs (Controller,
	// rates, AttachMeta, CaptureGCC, ECN, TwoParty).
	Workload WorkloadKind

	// Seed drives this UE's media randomness (camera content, encoder
	// noise): the sender uses Seed+10 and the far party Seed+20.
	Seed int64

	Controller  ControllerKind
	InitialRate units.BitRate
	MinRate     units.BitRate
	MaxRate     units.BitRate
	AttachMeta  bool
	CaptureGCC  bool
	ECN         bool
	Sched       ran.SchedulerKind

	// TwoParty adds this participant's far end: a remote sender whose
	// media ride the 5G downlink to a receiver on the UE host, with RTCP
	// feedback competing on the UE uplink. Only meaningful on Access5G.
	TwoParty bool

	SenderClockOffset   time.Duration
	ReceiverClockOffset time.Duration
	EstimateOffsets     bool

	// Cell is the index into Topology.Cells this UE initially attaches
	// to; must be zero (with no Handovers) when Cells is empty.
	Cell int
	// Handovers scripts cell changes for this UE. Every target cell is
	// pulled into the UE's handover domain, so all cells a UE can visit
	// share one simulation shard (endpoint pipelines cannot migrate
	// across engines; see DESIGN.md "Sharded simulation").
	Handovers []Handover
}

// Topology describes a composable testbed: N VCA UEs, each with its own
// endpoint pipeline, host clocks, captures and flow IDs, sharing one
// access network (RAN cells under Access5G, whose schedulers arbitrate
// the competing UE buffers) and one wired core→WAN→SFU path per shard.
// A 1-UE topology is byte-identical to the historical monolithic Run
// (the golden-compat test pins this).
type Topology struct {
	Seed     int64
	Duration time.Duration

	// Access selects the uplink technology; empty means Access5G. Under
	// Access5G UEs attach to shared cells; the other access kinds give
	// each UE a private link.
	Access AccessKind

	RAN ran.Config
	// CrossUEs / CrossPhases load the implicit cell of an Access5G
	// topology with empty Cells; explicit cells carry their own.
	CrossUEs    int
	CrossPhases []ran.CrossPhase

	Spikes  []Spike
	Jitters []JitterEpisode

	UEs []UESpec

	// Cells lists the deployment's cells: each gets its own RAN
	// instance, UEs attach per UESpec.Cell, and the simulation shards
	// per handover domain — one sim engine per domain, each run to the
	// end independently of the others (in parallel). Empty
	// Cells on the Access5G path means one default cell (Cells: nil ≡
	// Cells: []CellSpec{{}} when CrossUEs is zero); off it, no cell.
	Cells []CellSpec

	// Serial forces a run to advance its shards one after another on
	// the calling goroutine instead of one goroutine each.
	// Execution-only: digests are identical either way (the golden test
	// pins this).
	Serial bool
}

// FlowIDs are the flow identifiers owned by one UE.
type FlowIDs struct {
	Video   uint32 // uplink media SSRCs
	Audio   uint32
	DLVideo uint32 // far-party (downlink) media SSRCs
	DLAudio uint32
	NTP     uint32 // NTP exchange flow (KindCross)
}

// UEFlowIDs returns the flow identifiers of the i-th UE. UE 0 keeps the
// legacy single-UE assignment (video 1, audio 2, downlink 11/12,
// NTP 999); later UEs shift the media block by 20 per index and count
// NTP flows down from 999.
func UEFlowIDs(i int) FlowIDs {
	b := uint32(20 * i)
	return FlowIDs{Video: b + 1, Audio: b + 2, DLVideo: b + 11, DLAudio: b + 12, NTP: 999 - uint32(i)}
}

// All lists every flow the UE owns across both directions.
func (f FlowIDs) All() []uint32 {
	return []uint32{f.Video, f.Audio, f.DLVideo, f.DLAudio, f.NTP}
}

// proberFlow is the core→SFU ICMP probe flow. It never collides with
// UEFlowIDs: media flows are ≡ 1, 2, 11 or 12 (mod 20).
const proberFlow = 50

// crossFlowBase returns the first flow ID for synthetic cross-traffic
// UEs, above every VCA UE's block. The legacy base 100 is kept whenever
// the UE blocks stay below it.
func (top Topology) crossFlowBase() uint32 {
	if base := uint32(20*len(top.UEs) + 20); base > 100 {
		return base
	}
	return 100
}

// DefaultUE returns a UESpec with the Defaults() endpoint knobs.
func DefaultUE() UESpec {
	d := Defaults()
	return UESpec{
		Controller:  d.Controller,
		InitialRate: d.InitialRate,
		MinRate:     d.MinRate,
		MaxRate:     d.MaxRate,
		Sched:       d.Sched,
	}
}

// NewTopology returns a topology of n default VCA UEs sharing one
// Defaults() cell, each with a distinct media seed.
func NewTopology(n int) Topology {
	cfg := Defaults()
	top := Topology{
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
		RAN:      cfg.RAN,
	}
	for i := 0; i < n; i++ {
		u := DefaultUE()
		u.Seed = cfg.Seed + int64(1000*i)
		top.UEs = append(top.UEs, u)
	}
	return top
}

// SingleUE lifts a legacy single-sender Config into a 1-UE Topology:
// the compatibility constructor Run and the root drivers go through it.
func SingleUE(cfg Config) Topology {
	return Topology{
		Seed:        cfg.Seed,
		Duration:    cfg.Duration,
		Access:      cfg.Access,
		RAN:         cfg.RAN,
		CrossUEs:    cfg.CrossUEs,
		CrossPhases: cfg.CrossPhases,
		Spikes:      cfg.Spikes,
		Jitters:     cfg.Jitters,
		UEs: []UESpec{{
			Seed:                cfg.Seed,
			Controller:          cfg.Controller,
			InitialRate:         cfg.InitialRate,
			MinRate:             cfg.MinRate,
			MaxRate:             cfg.MaxRate,
			AttachMeta:          cfg.AttachMeta,
			CaptureGCC:          cfg.CaptureGCC,
			ECN:                 cfg.ECN,
			Sched:               cfg.Sched,
			TwoParty:            cfg.TwoParty,
			SenderClockOffset:   cfg.SenderClockOffset,
			ReceiverClockOffset: cfg.ReceiverClockOffset,
			EstimateOffsets:     cfg.EstimateOffsets,
		}},
	}
}

// onRANPath reports whether the UEs attach to shared RAN cells (the
// Access5G path) rather than to private emulated, Wi-Fi, LEO or wired
// links.
func (top Topology) onRANPath() bool {
	return top.Access == "" || top.Access == Access5G
}

// Validate reports the first reason RunTopology cannot run top: a
// workload family that does not exist, a VCA-only knob or a private
// access link on a family that needs the shared cell's downlink, or
// cell references that do not resolve. nil means RunTopology will not
// panic on the configuration.
func (top Topology) Validate() error {
	ranPath := top.onRANPath()
	if len(top.Cells) > 0 && !ranPath {
		return errors.New("scenario: Topology.Cells requires the Access5G path")
	}
	for i, u := range top.UEs {
		switch kind := u.workloadKind(); kind {
		case WorkloadVCA:
		case WorkloadCloudGaming, WorkloadBulkTransfer, WorkloadAudioOnly:
			if u.TwoParty {
				return fmt.Errorf("scenario: UE %d sets TwoParty on workload %q (VCA-only)", i, kind)
			}
			if !ranPath {
				return fmt.Errorf("scenario: workload %q on UE %d requires the Access5G path", kind, i)
			}
		default:
			return fmt.Errorf("scenario: UE %d names unknown workload %q", i, kind)
		}
		if len(top.Cells) == 0 {
			if u.Cell != 0 || len(u.Handovers) > 0 {
				return fmt.Errorf("scenario: UE %d sets Cell/Handovers but Topology.Cells is empty", i)
			}
			continue
		}
		if u.Cell < 0 || u.Cell >= len(top.Cells) {
			return fmt.Errorf("scenario: UE %d homed on cell %d of %d", i, u.Cell, len(top.Cells))
		}
		for _, h := range u.Handovers {
			if h.ToCell < 0 || h.ToCell >= len(top.Cells) {
				return fmt.Errorf("scenario: UE %d hands over to cell %d of %d", i, h.ToCell, len(top.Cells))
			}
		}
	}
	return nil
}

// UEResult is one UE's slice of a topology run.
type UEResult struct {
	Spec  UESpec
	ID    uint32 // RAN UE identifier (1 + index)
	Flows FlowIDs

	// Workload is the resolved application family; Score is its
	// app-level QoE summary, filled by the correlation stage.
	Workload WorkloadKind
	Score    WorkloadScore

	// Sender / Receiver are the VCA endpoints (nil on non-VCA
	// workloads, whose QoE lives in Score).
	Sender   *vca.Sender
	Receiver *vca.Receiver
	GCC      *gcc.GCC        // nil unless a GCC-family controller ran
	PCC      *pcc.Controller // nil unless the PCC controller ran

	CapSender, CapReceiver *packet.Capture

	// DLSender / DLReceiver are the far participant's endpoints when
	// Spec.TwoParty is set (nil otherwise).
	DLSender   *vca.Sender
	DLReceiver *vca.Receiver

	// Report is the Athena correlation restricted to this UE's flows.
	Report *core.Report

	RanDelayBySeq    *phyaware.Table
	EstimatedOffsets map[packet.Point]time.Duration
}

// TopologyResult bundles the per-shard infrastructure and per-UE results.
type TopologyResult struct {
	// Top is the topology as run: defaults filled in, the implicit cell
	// of a cell-less Access5G topology made explicit.
	Top Topology

	// Sim, RAN (nil off the Access5G path), Prober, CapCore and CapSFU
	// alias Shards[0] (RAN its first cell, which is always cell 0): the
	// whole run's infrastructure when there is one shard. CapCore /
	// CapSFU are a shard's shared mid-path captures; every UE's packets
	// interleave there, which is exactly why per-UE correlation takes a
	// flow filter.
	Sim             *sim.Simulator
	RAN             *ran.RAN
	Prober          *probe.Prober
	CapCore, CapSFU *packet.Capture

	// UEs are every shard's UE results, by global UE index.
	UEs []*UEResult

	// Shards holds each shard's infrastructure; never empty.
	Shards []*ShardResult
}

// build threads state through the stage builders. Each stage mirrors one
// block of the historical monolithic Run, in the same construction order
// — RNG streams derive from the master seed in creation sequence, so the
// order IS the behavior.
type build struct {
	top   Topology
	s     *sim.Simulator
	alloc packet.Alloc
	res   *ShardResult
	ues   []*ueBuild

	coreClk, sfuClk *clock.HostClock

	wanUp  *netem.Link
	inject *injector

	// cellByGlobal looks up this shard's RAN instances (res.RANs,
	// parallel to res.Cells) by global cell index.
	cellByGlobal map[int]*ran.RAN

	// owned marks, by flow ID, every flow of the shard's UEs: the flows
	// its captures record.
	owned []bool

	// Routing tables for the shared stages, keyed by flow.
	downlinkByFlow map[uint32]*netem.Link // SFU egress → subscriber WAN leg
	ueByNTPFlow    map[uint32]*ueBuild    // core NTP turnaround
	ueByDLFB       map[uint32]*ueBuild    // far-party RTCP feedback
	ueByMedia      map[uint32]*ueBuild    // PHY side-channel table fill
}

// ueBuild is the under-construction state of one UE's endpoint pipeline.
type ueBuild struct {
	spec  UESpec
	idx   int
	flows FlowIDs
	res   *UEResult

	// wl is the UE's application workload — the pluggable endpoint stage
	// behind the shared access and capture plumbing.
	wl Workload

	senderClk, recvClk *clock.HostClock
	ctrl               cc.Controller
	ranUE              *ran.UE
	snd                *vca.Sender
	wanDown            *netem.Link

	// servingCell is the cell currently carrying this UE's downlink (and,
	// via ranUE's attachment, its uplink); nil off the Access5G path. A
	// handover repoints it at detach time so downlink traffic reroutes
	// immediately, while the uplink rebinds when the grant gap ends.
	// curCell is its global cell index.
	servingCell *ran.RAN
	curCell     int

	// toRemoteSender delivers a far participant's feedback (the event
	// argument) to the remote sender; nil without one.
	toRemoteSender func(any)

	ntpT1, ntpT2       map[uint64]time.Duration
	senderNTP, recvNTP clock.SyncEstimator
}

// newBuildFor allocates one shard's simulator, host clocks and
// controllers — no events or RNG streams yet — for the given subset of
// the topology's UEs, with its own engine seed. UEs keep their global
// index — flow IDs, clock names and RAN UE identifiers are
// topology-global, so merged results are position-independent.
func newBuildFor(top Topology, seed int64, plan shardPlan) *build {
	s := sim.New(seed)
	b := &build{
		top:            top,
		s:              s,
		res:            &ShardResult{Cells: plan.cells, Sim: s},
		coreClk:        clock.Perfect("core"),
		sfuClk:         clock.Perfect("sfu"),
		downlinkByFlow: make(map[uint32]*netem.Link),
		ueByNTPFlow:    make(map[uint32]*ueBuild),
		ueByDLFB:       make(map[uint32]*ueBuild),
		ueByMedia:      make(map[uint32]*ueBuild),
	}
	for _, i := range plan.ues {
		spec := top.UEs[i]
		sname, rname := "sender", "receiver"
		if i > 0 {
			sname = fmt.Sprintf("sender%d", i+1)
			rname = fmt.Sprintf("receiver%d", i+1)
		}
		ub := &ueBuild{
			spec:      spec,
			idx:       i,
			flows:     UEFlowIDs(i),
			senderClk: &clock.HostClock{Name: sname, Offset: spec.SenderClockOffset},
			recvClk:   &clock.HostClock{Name: rname, Offset: spec.ReceiverClockOffset},
			ntpT1:     make(map[uint64]time.Duration),
			ntpT2:     make(map[uint64]time.Duration),
			res: &UEResult{
				Spec:          spec,
				ID:            uint32(i + 1),
				Flows:         UEFlowIDs(i),
				RanDelayBySeq: phyaware.NewTable(),
			},
		}
		ub.res.Workload = spec.workloadKind()
		ub.wl = newWorkload(spec, ub)
		b.ues = append(b.ues, ub)
		b.res.UEs = append(b.res.UEs, ub.res)
		for _, f := range ub.flows.All() {
			if int(f) >= len(b.owned) {
				b.owned = append(b.owned, make([]bool, int(f)+1-len(b.owned))...)
			}
			b.owned[f] = true
		}
		b.ueByNTPFlow[ub.flows.NTP] = ub
		b.ueByMedia[ub.flows.Video] = ub
		b.ueByMedia[ub.flows.Audio] = ub
		if spec.TwoParty && ub.wl.Kind() == WorkloadVCA {
			b.ueByDLFB[ub.flows.DLVideo] = ub
		}
	}
	return b
}

// buildController instantiates one UE's congestion controller, recording
// the concrete GCC/PCC handle for drivers that read their traces.
func buildController(spec UESpec, res *UEResult) cc.Controller {
	switch spec.Controller {
	case CtlL4S:
		return l4s.New(spec.InitialRate, spec.MinRate, spec.MaxRate)
	case CtlPCC:
		p := pcc.New(spec.InitialRate, spec.MinRate, spec.MaxRate)
		res.PCC = p
		return p
	case CtlPHYAware:
		g := phyaware.New(spec.InitialRate, spec.MinRate, spec.MaxRate, res.RanDelayBySeq)
		g.CaptureTrace = spec.CaptureGCC
		res.GCC = g
		return g
	default: // CtlGCC, CtlMaskedGCC
		g := gcc.New(spec.InitialRate, spec.MinRate, spec.MaxRate)
		g.CaptureTrace = spec.CaptureGCC
		res.GCC = g
		return g
	}
}

// buildWiredPath constructs the shared downstream stage — per-UE
// receiver edges, the SFU with its per-flow egress demux, the WAN legs,
// the core capture (point ②) and the delay-injection stage.
func (b *build) buildWiredPath() {
	s := b.s

	// Receiver edge (point ④) and the SFU→receiver WAN leg, one per UE.
	for _, ub := range b.ues {
		ub := ub
		cap4 := packet.NewCapture(ub.recvClk, s.Now,
			packet.HandlerFunc(func(p *packet.Packet) { ub.wl.WiredArrival(p) }))
		cap4.Keep = b.ownedFlow
		ub.res.CapReceiver = cap4
		ub.wanDown = netem.NewLink(s, "sfu-recv", 7*time.Millisecond, units.Gbps, cap4)
		ub.wanDown.Jitter = 500 * time.Microsecond
		b.downlinkByFlow[ub.flows.Video] = ub.wanDown
		b.downlinkByFlow[ub.flows.Audio] = ub.wanDown
	}

	// SFU egress demux: each media flow goes to its subscriber's WAN
	// leg. Flows nobody owns (cross traffic reaching the SFU) fan out on
	// the first UE's path, as in the single-party testbed where one
	// receiver host saw all SFU egress; VCA receivers ignore them, and
	// no capture records them.
	egress := packet.HandlerFunc(func(p *packet.Packet) {
		if l, ok := b.downlinkByFlow[p.Flow]; ok {
			l.Handle(p)
			return
		}
		if len(b.ues) > 0 {
			b.ues[0].wanDown.Handle(p)
		}
	})
	sfu := netem.NewSFU(s, egress)
	// The SFU is also the probe target: echoes return to the core.
	wanBackToCore := netem.NewLink(s, "sfu-core", 8*time.Millisecond, units.Gbps, packet.HandlerFunc(func(p *packet.Packet) {
		b.res.Prober.Done(p)
	}))
	wanBackToCore.Jitter = 500 * time.Microsecond
	sfuIngress := packet.HandlerFunc(func(p *packet.Packet) {
		if p.Kind == packet.KindICMP {
			b.res.Prober.Echo(p)
			wanBackToCore.Handle(p)
			return
		}
		b.res.CapSFU.Handle(p)
	})
	b.res.CapSFU = packet.NewCapture(b.sfuClk, s.Now, sfu)
	b.res.CapSFU.Keep = b.ownedFlow
	b.wanUp = netem.NewLink(s, "core-sfu", 8*time.Millisecond, units.Gbps, sfuIngress)
	b.wanUp.Jitter = 500 * time.Microsecond
	if b.top.RAN.ECNThreshold == 0 {
		for _, ub := range b.ues {
			if ub.spec.ECN {
				// Shallow L4S marking at the true bottleneck: the UE
				// uplink queue.
				b.top.RAN.ECNThreshold = 6000
				break
			}
		}
	}

	// Delay injection stage (Fig 8 episodes) between core and WAN.
	b.inject = newInjector(s, b.top.Spikes, b.top.Jitters, b.wanUp)

	b.res.CapCore = packet.NewCapture(b.coreClk, s.Now, b.coreIngress())
	b.res.CapCore.Keep = b.ownedFlow
}

// ownedFlow reports whether a UE of the shard owns flow. The shard's
// captures record only such flows: every correlation joins a UE's
// records on its own flows, so a record of cross traffic would be kept
// and never read — in a loaded cell, most of each shared log.
func (b *build) ownedFlow(flow uint32) bool {
	return int(flow) < len(b.owned) && b.owned[flow]
}

// coreIngress is the capture-plane stage at point ②: NTP turnaround,
// far-party feedback hand-off, PHY side-channel table fill, then the
// injection stage toward the WAN — all demuxed per owning UE.
func (b *build) coreIngress() packet.Handler {
	s := b.s
	return packet.HandlerFunc(func(p *packet.Packet) {
		// NTP requests from a UE host turn around at the core.
		if p.Kind == packet.KindCross {
			if ub, ok := b.ueByNTPFlow[p.Flow]; ok {
				ub.ntpT2[p.ID] = b.coreClk.Read(s.Now())
				if ub.ranUE != nil {
					ub.servingCell.SendDownlink(ub.ranUE, p)
				}
				return
			}
		}
		// A far participant's RTCP feedback exits the uplink here and
		// heads back across the WAN to the remote sender.
		if p.Kind == packet.KindRTCP {
			if ub, ok := b.ueByDLFB[p.Flow]; ok {
				if ub.toRemoteSender != nil {
					s.AfterArg(15*time.Millisecond, ub.toRemoteSender, p)
				}
				return
			}
		}
		if rp, ok := p.Payload.(*rtp.Packet); ok && rp.HasTWSeq {
			if ub, ok := b.ueByMedia[p.Flow]; ok {
				// Only the RAN-mechanical share is reported: slot
				// alignment and BSR scheduling are bounded by one BSR
				// cycle; queue wait beyond that indicates genuine
				// contention and must stay visible to the sender's
				// congestion controller.
				mech := p.GroundTruth.UEQueueWait
				if lim := b.top.RAN.SchedDelay + b.top.RAN.ULPeriod(); mech > lim {
					mech = lim
				}
				ub.res.RanDelayBySeq.Set(rp.TWSeq, mech+p.GroundTruth.HARQDelay)
			}
		}
		b.inject.Handle(p)
	})
}

// buildAccess constructs the shared access stage: under Access5G, one
// RAN per owned cell, in global cell order, whose scheduler arbitrates
// every attached UE's buffer; UEs attach to their home cell; per-cell
// synthetic cross traffic last (stream creation order IS the behavior).
// The other access kinds give each UE a private link, built by
// buildEndpoint.
func (b *build) buildAccess() {
	if !b.top.onRANPath() {
		return
	}
	b.cellByGlobal = make(map[int]*ran.RAN, len(b.res.Cells))
	for _, ci := range b.res.Cells {
		cfg := b.top.RAN
		cfg.CellID = uint32(ci)
		cell := ran.New(b.s, cfg, b.res.CapCore)
		b.res.RANs = append(b.res.RANs, cell)
		b.cellByGlobal[ci] = cell
	}
	for _, ub := range b.ues {
		cell := b.cellByGlobal[ub.spec.Cell]
		ub.ranUE = cell.AttachUE(uint32(ub.idx+1), ub.spec.Sched)
		ub.ranUE.Hint = ub.wl.Hint()
		ub.servingCell = cell
		ub.curCell = ub.spec.Cell
	}
	for _, ci := range b.res.Cells {
		spec := b.top.Cells[ci]
		if spec.CrossUEs > 0 && len(spec.CrossPhases) > 0 {
			base := b.top.crossFlowBase() + uint32(64*ci)
			ran.NewCrossSource(b.s, b.cellByGlobal[ci], &b.alloc, spec.CrossUEs, base, spec.CrossPhases)
		}
	}
}

// buildEndpoint constructs one UE's endpoint stage: the sender capture
// (point ①) in front of its access egress — shared by every family —
// then the UE's workload pipeline (for VCA: sender, feedback return
// path with the downlink demux, receiver, optional TwoParty far end).
func (b *build) buildEndpoint(ub *ueBuild) {
	s, top := b.s, b.top

	// Access egress: the shared cell's UE attachment, or a private
	// emulated / Wi-Fi / LEO / wired link into the core capture.
	var senderOut packet.Handler
	switch {
	case ub.ranUE != nil:
		senderOut = ub.ranUE
	case top.Access == AccessEmulated:
		// The cell's per-UL-slot TBS capacity as a constant rate. tc
		// shapes at packet granularity, so the budget is spread over the
		// finer slot grid and the emulated link is smooth.
		perSlot := top.RAN.SlotCapacity() / units.ByteCount(top.RAN.SlotsPerPeriod)
		senderOut = netem.NewFixedLatencyLink(s, privateLinkDelay, perSlot, top.RAN.SlotDuration, b.res.CapCore)
	case top.Access == AccessWiFi:
		senderOut = wifi.New(s, wifi.Defaults(), b.res.CapCore)
	case top.Access == AccessLEO:
		senderOut = netem.NewLEOLink(s, b.res.CapCore)
	default: // AccessWired
		senderOut = netem.NewFixedLatencyLink(s, privateLinkDelay, top.RAN.SlotCapacity(), top.RAN.ULPeriod(), b.res.CapCore)
	}
	cap1 := packet.NewCapture(ub.senderClk, s.Now, senderOut)
	ub.res.CapSender = cap1

	ub.wl.Build(b, ub)
}

// buildProbes constructs the shared ICMP prober and, per UE with
// EstimateOffsets, the NTP clients whose sender-side exchanges ride the
// real access path.
func (b *build) buildProbes() {
	s := b.s
	b.res.Prober = probe.New(s, &b.alloc, proberFlow, b.wanUp)

	for _, ub := range b.ues {
		ub := ub
		if !ub.spec.EstimateOffsets {
			continue
		}
		if ub.ranUE != nil {
			cap1 := ub.res.CapSender
			flow := ub.flows.NTP
			s.Every(50*time.Millisecond, 250*time.Millisecond, func() {
				p := b.alloc.New(packet.KindCross, flow, 90, s.Now())
				ub.ntpT1[p.ID] = ub.senderClk.Read(s.Now())
				cap1.Handle(p)
			})
		}
		// The receiver host syncs over the wired path (15 ms symmetric
		// with sub-ms jitter).
		ntpRNG := s.NewStream()
		s.Every(70*time.Millisecond, 250*time.Millisecond, func() {
			t1 := ub.recvClk.Read(s.Now())
			owdUp := 15*time.Millisecond + time.Duration(ntpRNG.Int63n(int64(time.Millisecond)))
			owdDn := 15*time.Millisecond + time.Duration(ntpRNG.Int63n(int64(time.Millisecond)))
			arrive := s.Now() + owdUp
			s.At(arrive+owdDn, func() {
				stamp := b.coreClk.Read(arrive)
				ub.recvNTP.Add(clock.ProbeSample{T1: t1, T2: stamp, T3: stamp, T4: ub.recvClk.Read(s.Now())})
			})
		})
	}
}

// start launches every workload and the prober.
func (b *build) start() {
	for _, ub := range b.ues {
		ub.wl.Start()
	}
	b.res.Prober.Start()
}

// stop halts the traffic sources after the run.
func (b *build) stop() {
	for _, ub := range b.ues {
		ub.wl.Stop()
	}
}

// correlate runs the Athena correlator once per UE over the inputs
// shardInputs derives: private captures (points ① and ④), the shared
// mid-path captures restricted to the UE's flows, and the cell telemetry
// restricted to the UE's TBs. NTP-estimated clock offsets are resolved
// first, since the inputs read them.
//
// The per-UE correlations fan out across GOMAXPROCS workers. Each
// worker's Correlate is a pure function of its UE's inputs writing only
// that UE's result, so the output is input-ordered and byte-identical to
// the serial loop regardless of scheduling.
func (b *build) correlate() {
	for _, ub := range b.ues {
		if !ub.spec.EstimateOffsets {
			continue
		}
		// ProbeSample.Offset() is remote-minus-reference; the reference
		// clock here is the host being synchronized, and the core is the
		// (true-time) remote, so the host's own offset is the negation.
		offsets := map[packet.Point]time.Duration{}
		if est, ok := ub.senderNTP.Estimate(); ok {
			offsets[packet.PointSender] = -est
		}
		if est, ok := ub.recvNTP.Estimate(); ok {
			offsets[packet.PointReceiver] = -est
		}
		ub.res.EstimatedOffsets = offsets
	}
	ins := shardInputs(b.top, b.res, true)

	correlateUE := func(i int) {
		ub := b.ues[i]
		ub.res.Report = core.Correlate(ins[i])
		ub.res.Score = ub.wl.Score(b.top.Duration)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(b.ues) {
		workers = len(b.ues)
	}
	if workers <= 1 {
		for i := range b.ues {
			correlateUE(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.ues) {
					return
				}
				correlateUE(i)
			}
		}()
	}
	wg.Wait()
}

// shardInputs derives the correlator input of each UE of one shard, in
// shard order: the one derivation behind both the run's correlation
// stage and the live feeds SessionStreams taps.
//
// The shard's shared captures, which record only its UEs' flows, are
// partitioned by owning UE in one scan each. The cells' telemetry is
// concatenated in global cell order (a UE that handed over has TBs in
// two cells' streams, and the TB reconstruction tolerates the resulting
// time interleaving) and partitioned by RAN UE identifier. Clock offsets are
// the configured ones, or EstimatedOffsets for a UE that estimates
// them; Flows is set only in a shard of several UEs, so a shard of one
// correlates unfiltered.
//
// The live path ingests only the sender capture, the core capture and
// the telemetry. downstream also fills what the batch correlation reads
// beyond that: the SFU partition, the receiver capture and the probe
// baseline.
func shardInputs(top Topology, sr *ShardResult, downstream bool) []core.Input {
	ues := sr.UEs
	ueOfFlow := make(map[uint32]int, 5*len(ues))
	idOf := make(map[uint32]int, len(ues))
	for i, u := range ues {
		for _, f := range u.Flows.All() {
			ueOfFlow[f] = i
		}
		idOf[u.ID] = i
	}
	coreByUE := partitionByFlow(sr.CapCore.Records, ueOfFlow, len(ues))
	var sfuByUE [][]packet.Record
	var baseline time.Duration
	if downstream {
		sfuByUE = partitionByFlow(sr.CapSFU.Records, ueOfFlow, len(ues))
		baseline = probeBaseline(sr.Prober)
	}
	var tbsByUE [][]telemetry.TBRecord
	if cells := sr.RANs; len(cells) > 0 {
		recs := cells[0].Telemetry.Records
		if len(cells) > 1 {
			total := 0
			for _, c := range cells {
				total += len(c.Telemetry.Records)
			}
			merged := make([]telemetry.TBRecord, 0, total)
			for _, c := range cells {
				merged = append(merged, c.Telemetry.Records...)
			}
			recs = merged
		}
		tbsByUE = partitionTBsByUE(recs, idOf, len(ues))
	}

	ins := make([]core.Input, len(ues))
	for i, u := range ues {
		offsets := u.EstimatedOffsets
		if !u.Spec.EstimateOffsets {
			offsets = map[packet.Point]time.Duration{
				packet.PointSender:   u.Spec.SenderClockOffset,
				packet.PointReceiver: u.Spec.ReceiverClockOffset,
			}
		}
		in := core.Input{
			Sender:       u.CapSender.Records,
			Core:         coreByUE[i],
			Offsets:      offsets,
			SlotDuration: top.RAN.SlotDuration,
			HARQRTT:      top.RAN.HARQRTT,
			CoreDelay:    top.RAN.CoreDelay,
		}
		if len(ues) > 1 {
			in.Flows = u.Flows.All()
		}
		if tbsByUE != nil {
			in.TBs = tbsByUE[i]
		}
		if downstream {
			in.SFU = sfuByUE[i]
			in.Receiver = u.CapReceiver.Records
			in.ProbeOWDBaseline = baseline
		}
		ins[i] = in
	}
	return ins
}

// partitionByFlow splits a shared capture into per-UE record slices in
// one pass, preserving capture order within each partition. Records of
// unowned flows are dropped — they can never join a UE's sender index.
// A partition that would keep every record (one UE owning the whole
// capture) is the capture itself, capped at its length so an append
// cannot reach the log's spare room; no reader writes through it.
func partitionByFlow(records []packet.Record, ueOfFlow map[uint32]int, n int) [][]packet.Record {
	counts := make([]int, n)
	for _, r := range records {
		if i, ok := ueOfFlow[r.Flow]; ok {
			counts[i]++
		}
	}
	if n == 1 && counts[0] == len(records) {
		return [][]packet.Record{records[:len(records):len(records)]}
	}
	out := make([][]packet.Record, n)
	for i, c := range counts {
		out[i] = make([]packet.Record, 0, c)
	}
	for _, r := range records {
		if i, ok := ueOfFlow[r.Flow]; ok {
			out[i] = append(out[i], r)
		}
	}
	return out
}

// partitionTBsByUE splits cell telemetry into per-UE attempt streams in
// one pass, preserving input order. idOf maps RAN UE identifiers to
// local result positions (sparse for a shard holding a subset of the
// topology's UEs). Like partitionByFlow, it returns the input itself,
// capped, when one UE owns every record.
func partitionTBsByUE(records []telemetry.TBRecord, idOf map[uint32]int, n int) [][]telemetry.TBRecord {
	counts := make([]int, n)
	for _, r := range records {
		if i, ok := idOf[r.UE]; ok {
			counts[i]++
		}
	}
	if n == 1 && counts[0] == len(records) {
		return [][]telemetry.TBRecord{records[:len(records):len(records)]}
	}
	out := make([][]telemetry.TBRecord, n)
	for i, c := range counts {
		out[i] = make([]telemetry.TBRecord, 0, c)
	}
	for _, r := range records {
		if i, ok := idOf[r.UE]; ok {
			out[i] = append(out[i], r)
		}
	}
	return out
}
