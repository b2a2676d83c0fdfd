// Package core implements the Athena correlator — the paper's primary
// contribution: it time-synchronizes packet captures taken at the sender,
// mobile core, SFU and receiver, aligns them with the NG-Scope-style
// per-transport-block PHY telemetry, groups packets into application-layer
// frames and audio samples, and attributes each packet's one-way delay to
// its root cause (UE queueing/slot alignment, BSR scheduling wait, HARQ
// retransmission, WAN propagation, SFU application-layer processing).
//
// The correlator works only from information a real deployment has:
// pcap-visible header fields, sniffer-visible TB records, cell
// configuration, and NTP/probe-derived clock offsets. The simulator's
// ground truth is used exclusively by the test suite to score it.
package core

import (
	"sort"
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/telemetry"
)

// Input is everything the correlator consumes for one monitored session.
type Input struct {
	// Captures by point. Sender and Core are required for uplink
	// analysis; SFU and Receiver enable end-to-end attribution.
	Sender, Core, SFU, Receiver []packet.Record

	// TBs is the sniffer view of the monitored UE's transport blocks
	// (all HARQ attempts).
	TBs []telemetry.TBRecord

	// Flows, when non-empty, restricts correlation to the listed flow
	// IDs: records of other flows are ignored at every capture point.
	// Multi-UE topologies use it to carve one UE's traffic out of the
	// shared mid-path captures. Note the sender capture is the FIFO the
	// TB matcher replays, so Flows must cover every flow that entered
	// the monitored UE's uplink buffer, not just the flows of interest.
	Flows []uint32

	// Offsets are the estimated clock offsets (local minus true) for each
	// capture point, from NTP/probe synchronization. Missing points are
	// assumed perfectly synchronized.
	Offsets map[packet.Point]time.Duration

	// SlotDuration, HARQRTT and CoreDelay come from the (known) cell
	// configuration. HARQRTT (default 10 ms) bounds how long after a
	// failed transport-block attempt its retransmission can arrive; the
	// live path uses it to hold emission until a TB's fate is settled.
	SlotDuration time.Duration
	HARQRTT      time.Duration
	CoreDelay    time.Duration

	// MatchTolerance loosens the packet↔TB causality check to absorb
	// residual clock error; zero means the default 5 ms (NTP-grade).
	MatchTolerance time.Duration

	// ProbeOWDBaseline is the median probe one-way delay core→receiver
	// path; used to split WAN propagation from SFU processing.
	ProbeOWDBaseline time.Duration
}

// withDefaults resolves the zero-means-default fields. It runs once,
// where an Input enters the correlator (Correlate, NewLive), so the
// matcher, the live settle gate and the live trim all read the same
// tolerance and HARQ round-trip.
func (in Input) withDefaults() Input {
	if in.MatchTolerance == 0 {
		in.MatchTolerance = 5 * time.Millisecond
	}
	if in.HARQRTT == 0 {
		in.HARQRTT = 10 * time.Millisecond
	}
	return in
}

// offset returns the clock offset of one capture point.
func (in *Input) offset(p packet.Point) time.Duration {
	if in.Offsets == nil {
		return 0
	}
	return in.Offsets[p]
}

// PacketView is the correlator's per-packet output.
type PacketView struct {
	Flow uint32
	Seq  uint32
	Kind packet.Kind

	// Corrected (true-time) observations.
	SentAt     time.Duration
	CoreAt     time.Duration
	ReceiverAt time.Duration
	SeenCore   bool
	SeenRecv   bool

	// Uplink analysis.
	ULDelay   time.Duration // SentAt → CoreAt
	TBIDs     []uint64      // transport blocks inferred to carry this packet
	GrantKind telemetry.GrantKind
	QueueWait time.Duration // send → first carrying TB transmission
	BSRWait   time.Duration // portion waiting on a requested grant
	HARQDelay time.Duration // inflation from retransmissions

	// Downstream analysis.
	WANDelay time.Duration // CoreAt → ReceiverAt
	SFUDelay time.Duration // WANDelay minus the probe baseline

	// RTP grouping inputs.
	SSRC    uint32
	RTPTime uint32
	Marker  bool
}

// Clone returns a view that owns its TBIDs. Views handed to a
// LiveCorrelator's Emit callback borrow the correlator's recycled
// buffers; a consumer that keeps one past the callback clones it.
func (v PacketView) Clone() PacketView {
	v.TBIDs = append([]uint64(nil), v.TBIDs...)
	return v
}

// Report is the correlator's output.
type Report struct {
	Packets []PacketView
	Frames  []FrameView
	// byKey indexes Packets for tests and downstream tools.
	byKey map[pktKey]int
	// fifoLeft holds, per Packets index, the bytes the TB matcher's FIFO
	// replay never drained into a transport block (nil when no TBs were
	// supplied). LiveCorrelator's trim uses it to find a prefix whose
	// matcher state is fully settled.
	fifoLeft []int64
}

type pktKey struct {
	flow uint32
	seq  uint32
	kind packet.Kind
}

// Packet looks up the view for a specific packet.
func (r *Report) Packet(flow, seq uint32, kind packet.Kind) (PacketView, bool) {
	i, ok := r.byKey[pktKey{flow, seq, kind}]
	if !ok {
		return PacketView{}, false
	}
	return r.Packets[i], true
}

// tbProcess is one TB's HARQ lifecycle reconstructed from attempts.
type tbProcess struct {
	id        uint64
	initialAt time.Duration
	finalAt   time.Duration // last (successful) attempt
	used      int64
	grant     telemetry.GrantKind
	rounds    int
	abandoned bool
}

// scratch is the correlator's working set. The batch entry point uses a
// zero scratch per call (fresh, capacity-preallocated buffers whose
// output-visible parts transfer into the returned Report); LiveCorrelator
// owns a persistent scratch with reuse set, which recycles every buffer —
// including the Report itself — so steady-state re-correlation of its
// window allocates nothing.
type scratch struct {
	// reuse keeps buffers (and the Report) across correlate calls. Only
	// safe when the caller abandons each returned Report before the next
	// call, as LiveCorrelator does.
	reuse bool

	rep       *Report
	senderBuf []packet.Record // filtered/sorted sender view when needed
	flowOK    map[uint32]bool
	fifoLeft  []int64
	tbids     []uint64 // shared backing array carved into per-packet TBIDs
	procs     []tbProcess
	procIdx   map[uint64]int32
}

// Correlate runs the full pipeline. Each call returns a freshly allocated
// Report whose memory is independent of the input slices.
func Correlate(in Input) *Report {
	var sc scratch
	rep := sc.correlate(in.withDefaults())
	// Group packets into frames/samples and compute delay spreads: only
	// batch callers read Report.Frames, so the live windows skip it.
	rep.Frames = groupFrames(rep.Packets)
	return rep
}

// correlate is the shared pipeline behind Correlate and LiveCorrelator;
// both hand it an Input whose defaults are already resolved.
// Stage spans (join, reconstructTBs, attribution) go to the global obs
// timeline; with none installed the spans are inert zero values, which
// preserves the live path's allocation-free guarantee.
func (sc *scratch) correlate(in Input) *Report {
	root := obs.StartSpan("correlate")
	defer root.End()
	rep := sc.report(len(in.Sender))

	// Flow filter (multi-UE topologies carving shared captures).
	var flowOK map[uint32]bool
	if len(in.Flows) > 0 {
		if sc.flowOK == nil {
			sc.flowOK = make(map[uint32]bool, len(in.Flows))
		} else {
			clear(sc.flowOK)
		}
		for _, f := range in.Flows {
			sc.flowOK[f] = true
		}
		flowOK = sc.flowOK
	}

	// 1. Build per-packet views from the sender capture (the session's
	//    send order), correcting clocks. Capture taps append under a
	//    monotone clock, so the common case — notably every
	//    LiveCorrelator window — is already time-ordered and skips the
	//    copy+sort entirely; a filter or an unsorted capture falls back
	//    to a scratch copy.
	senderRecs := in.Sender
	if sorted := packet.IsSortedByTime(senderRecs); !sorted || flowOK != nil {
		buf := sc.senderBuf[:0]
		for _, r := range senderRecs {
			if flowOK == nil || flowOK[r.Flow] {
				buf = append(buf, r)
			}
		}
		if !sorted {
			sort.Slice(buf, func(i, j int) bool { return buf[i].LocalTime < buf[j].LocalTime })
		}
		sc.senderBuf = buf
		senderRecs = buf
	}
	senderOff := in.offset(packet.PointSender)
	for _, r := range senderRecs {
		rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}] = len(rep.Packets)
		rep.Packets = append(rep.Packets, PacketView{
			Flow: r.Flow, Seq: r.Seq, Kind: r.Kind,
			SentAt:  r.LocalTime - senderOff,
			SSRC:    r.SSRC,
			RTPTime: r.RTPTime,
			Marker:  r.Marker,
		})
	}

	// 2. Join the core and receiver captures against the sender index.
	join := root.Child("correlate.join")
	coreOff := in.offset(packet.PointCore)
	for _, r := range in.Core {
		if flowOK != nil && !flowOK[r.Flow] {
			continue
		}
		if i, ok := rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}]; ok {
			v := &rep.Packets[i]
			v.CoreAt = r.LocalTime - coreOff
			v.SeenCore = true
			v.ULDelay = v.CoreAt - v.SentAt
		}
	}
	recvOff := in.offset(packet.PointReceiver)
	for _, r := range in.Receiver {
		if flowOK != nil && !flowOK[r.Flow] {
			continue
		}
		if i, ok := rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}]; ok {
			v := &rep.Packets[i]
			v.ReceiverAt = r.LocalTime - recvOff
			v.SeenRecv = true
			if v.SeenCore {
				v.WANDelay = v.ReceiverAt - v.CoreAt
				if in.ProbeOWDBaseline > 0 {
					v.SFUDelay = v.WANDelay - in.ProbeOWDBaseline
					if v.SFUDelay < 0 {
						v.SFUDelay = 0
					}
				}
			}
		}
	}

	join.End()

	// 3. Match packets to transport blocks and attribute uplink delay.
	sc.matchTBs(rep, in, senderRecs, root)

	return rep
}

// report readies the output Report: a fresh one with capacity hints in
// batch mode, the recycled one in reuse mode.
func (sc *scratch) report(senderHint int) *Report {
	if !sc.reuse {
		return &Report{
			Packets: make([]PacketView, 0, senderHint),
			byKey:   make(map[pktKey]int, senderHint),
		}
	}
	if sc.rep == nil {
		sc.rep = &Report{byKey: make(map[pktKey]int, senderHint)}
	}
	rep := sc.rep
	rep.Packets = rep.Packets[:0]
	rep.fifoLeft = nil
	clear(rep.byKey)
	return rep
}

// matchTBs reconstructs the UE buffer's FIFO service order: packets enter
// in sender-capture order; successful TBs drain UsedBytes each in
// transmission order. Byte conservation plus causality (a TB cannot carry
// a packet sent after the TB's transmission) pins down the mapping — the
// same reasoning Fig 9's dashed packet↔TB lines encode.
//
// rep.Packets is built 1:1 from the send-ordered sender records, so the
// packet slice IS the FIFO: position replaces the former per-record map
// lookup, rep.fifoLeft doubles as the in-place drain state, and every
// packet's TBIDs are carved out of one shared backing array (appends to
// the current FIFO head are contiguous, and the head never moves
// backwards). The former map[int]*carry of heap-allocated pairs reduces
// to two local process indexes finalized when the head advances.
func (sc *scratch) matchTBs(rep *Report, in Input, senderRecs []packet.Record, parent obs.Span) {
	if len(in.TBs) == 0 {
		// A TB-less window leaves an empty process table, not the previous
		// window's: LiveCorrelator reads the table after every pass.
		sc.procs = sc.procs[:0]
		clear(sc.procIdx)
		return
	}
	reconstruct := parent.Child("correlate.reconstructTBs")
	procs := sc.reconstructTBs(in.TBs)
	reconstruct.End()
	attribution := parent.Child("correlate.attribution")
	defer attribution.End()
	tol := in.MatchTolerance

	fifoLeft := sc.fifoLeft[:0]
	for _, r := range senderRecs {
		fifoLeft = append(fifoLeft, int64(r.Size))
	}
	sc.fifoLeft = fifoLeft
	rep.fifoLeft = fifoLeft

	// Each drain iteration either completes a packet or exhausts a TB,
	// so the shared TBID backing never exceeds len(procs)+len(packets).
	tbids := sc.tbids[:0]
	if cap(tbids) < len(procs)+len(rep.Packets) {
		tbids = make([]uint64, 0, len(procs)+len(rep.Packets))
	}

	head := 0
	tbStart := 0           // tbids index where the head packet's IDs begin
	headFirst := int32(-1) // procs index of the head packet's first carrying TB
	headLast := int32(-1)
	for pi := range procs {
		tb := &procs[pi]
		if tb.abandoned {
			continue
		}
		budget := tb.used
		for budget > 0 && head < len(fifoLeft) {
			v := &rep.Packets[head]
			// Causality: this TB cannot carry a packet sent after its
			// transmission (within the sync tolerance plus a slot).
			if v.SentAt > tb.initialAt+in.SlotDuration+tol {
				break
			}
			take := fifoLeft[head]
			if take > budget {
				take = budget
			}
			fifoLeft[head] -= take
			budget -= take
			if headFirst < 0 {
				headFirst = int32(pi)
			}
			headLast = int32(pi)
			tbids = append(tbids, tb.id)
			if fifoLeft[head] == 0 {
				end := len(tbids)
				v.TBIDs = tbids[tbStart:end:end]
				attributePacket(v, procs, headFirst, headLast)
				head++
				tbStart = end
				headFirst, headLast = -1, -1
			}
		}
	}
	if headFirst >= 0 {
		// The final head packet drained only partially; it still carries
		// attribution for the bytes that did ride TBs.
		end := len(tbids)
		v := &rep.Packets[head]
		v.TBIDs = tbids[tbStart:end:end]
		attributePacket(v, procs, headFirst, headLast)
	}
	sc.tbids = tbids
}

// attributePacket derives the uplink delay attribution from a packet's
// first and last carrying TB processes.
func attributePacket(v *PacketView, procs []tbProcess, first, last int32) {
	f, l := &procs[first], &procs[last]
	v.GrantKind = l.grant
	v.QueueWait = l.initialAt - v.SentAt
	if v.QueueWait < 0 {
		v.QueueWait = 0
	}
	if l.grant == telemetry.GrantRequested {
		v.BSRWait = v.QueueWait
	}
	// HARQ inflation: the completion-determining TB's retransmission
	// span.
	slowest := f
	if l.finalAt > f.finalAt {
		slowest = l
	}
	v.HARQDelay = slowest.finalAt - slowest.initialAt
}

// reconstructTBs groups attempt records into per-TB HARQ processes,
// ordered by initial transmission time. Processes live in one scratch
// slice indexed by a TBID→position map — no per-process heap allocation.
// It is the only writer of that table (sc.procs, sc.procIdx), which
// LiveCorrelator reads back after the pass. Telemetry normally arrives in
// transmission order, which makes the first-seen process order already
// sorted; the stable sort — and the re-index that keeps procIdx pointing
// at the moved processes — only runs when it is not.
func (sc *scratch) reconstructTBs(recs []telemetry.TBRecord) []tbProcess {
	out := sc.procs[:0]
	if cap(out) < len(recs) {
		out = make([]tbProcess, 0, len(recs))
	}
	if sc.procIdx == nil {
		sc.procIdx = make(map[uint64]int32, len(recs))
	} else {
		clear(sc.procIdx)
	}
	idx := sc.procIdx
	for _, r := range recs {
		j, ok := idx[r.TBID]
		if !ok {
			j = int32(len(out))
			idx[r.TBID] = j
			out = append(out, tbProcess{id: r.TBID, initialAt: r.At, finalAt: r.At, used: int64(r.UsedBytes), grant: r.Grant})
		}
		p := &out[j]
		if r.At < p.initialAt {
			p.initialAt = r.At
		}
		if r.At > p.finalAt {
			p.finalAt = r.At
		}
		if r.HARQRound >= p.rounds {
			p.rounds = r.HARQRound
			// The process's fate is its latest attempt's: a failed final
			// attempt means HARQ gave up and the bytes never arrived.
			p.abandoned = r.Failed
		}
	}
	sc.procs = out
	if !sortedByInitialAt(out) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].initialAt < out[j].initialAt })
		for i := range out {
			idx[out[i].id] = int32(i)
		}
	}
	return out
}

// sortedByInitialAt reports whether processes are already in
// non-decreasing initial-transmission order.
func sortedByInitialAt(procs []tbProcess) bool {
	for i := 1; i < len(procs); i++ {
		if procs[i].initialAt < procs[i-1].initialAt {
			return false
		}
	}
	return true
}
