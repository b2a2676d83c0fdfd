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
	// supplied).
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
	seen      uint64 // arrival number of the first attempt: the sort's tie-break
	rounds    int32
	nrec      int32 // attempts merged
	grant     telemetry.GrantKind
	abandoned bool
	dead      bool // removed by a live trim; the slot awaits compaction
}

// tbAttempt is one TB attempt reduced to what its process reads, with
// its arrival number.
type tbAttempt struct {
	id     uint64
	at     time.Duration
	used   int64
	seq    uint64
	round  int32
	grant  telemetry.GrantKind
	failed bool
}

// attemptOf reduces a TB record to an attempt.
func attemptOf(r telemetry.TBRecord, seq uint64) tbAttempt {
	return tbAttempt{r.TBID, r.At, int64(r.UsedBytes), seq, int32(r.HARQRound), r.Grant, r.Failed}
}

// newProcess starts a process from its first attempt seen.
func newProcess(a tbAttempt) tbProcess {
	p := tbProcess{id: a.id, initialAt: a.at, finalAt: a.at, used: a.used, grant: a.grant, seen: a.seq}
	p.merge(a)
	return p
}

// before orders processes by initial transmission, then by first sighting.
func (p *tbProcess) before(q *tbProcess) bool {
	return p.initialAt < q.initialAt || p.initialAt == q.initialAt && p.seen < q.seen
}

// merge folds one attempt into its process. used and grant stay those of
// the first attempt seen.
func (p *tbProcess) merge(a tbAttempt) {
	if a.at < p.initialAt {
		p.initialAt = a.at
	}
	if a.at > p.finalAt {
		p.finalAt = a.at
	}
	if a.round >= p.rounds {
		p.rounds = a.round
		// The process's fate is its latest attempt's: a failed final
		// attempt means HARQ gave up and the bytes never arrived.
		p.abandoned = a.failed
	}
	p.nrec++
}

// cursor is the FIFO matcher's position between processes: the head
// packet, where its TBIDs begin in the shared backing array, and (when it
// holds any) the process positions of its first and last carrying TBs.
type cursor struct {
	head, tbStart int
	first, last   int32
}

// checkpoint is what a live matcher needs to resume at one process: the
// head packet's absolute number, its undrained bytes and how many TBIDs it
// already holds.
type checkpoint struct {
	head, k int
	left    int64
}

// noPos marks an unset process position.
const noPos = 1<<31 - 1

// scratch is the correlator's working set. The batch entry point uses a
// zero scratch per call, whose output-visible parts transfer into the
// returned Report; LiveCorrelator owns one across its whole feed and
// extends it record by record.
type scratch struct {
	rep       *Report
	senderBuf []packet.Record // filtered/sorted sender view when needed
	fifoLeft  []int64
	tbids     []uint64 // shared backing array carved into per-packet TBIDs
	procs     []tbProcess
	procIdx   map[uint64]int32

	// Matcher state. m is the cursor where the last walk stopped. A live
	// scratch also keeps ckpt, the cursor at entry to each process from
	// position base on (heads numbered absolutely: a packet's position
	// plus shift), and dry, the first process whose budget the FIFO left
	// over by running dry. A walk takes nothing before base, so the state
	// on entering any process there is the first packet, untouched.
	// walked counts the process positions walked, the matcher's work.
	m      cursor
	ckpt   []checkpoint
	base   int
	shift  int
	dry    int
	walked int
}

// Correlate runs the full pipeline. Each call returns a freshly allocated
// Report whose memory is independent of the input slices.
func Correlate(in Input) *Report {
	var sc scratch
	rep := sc.correlate(in.withDefaults())
	// Group packets into frames/samples and compute delay spreads.
	rep.Frames = groupFrames(rep.Packets)
	return rep
}

// correlate is the batch pipeline; it takes an Input whose defaults are
// already resolved. Stage spans (join, reconstructTBs, attribution) go to
// the global obs timeline; with none installed they are inert zero values.
func (sc *scratch) correlate(in Input) *Report {
	root := obs.StartSpan("correlate")
	defer root.End()
	rep := &Report{
		Packets: make([]PacketView, 0, len(in.Sender)),
		byKey:   make(map[pktKey]int, len(in.Sender)),
	}

	// Flow filter (multi-UE topologies carving shared captures).
	var flowOK map[uint32]bool
	if len(in.Flows) > 0 {
		flowOK = make(map[uint32]bool, len(in.Flows))
		for _, f := range in.Flows {
			flowOK[f] = true
		}
	}

	// 1. Build per-packet views from the sender capture (the session's
	//    send order), correcting clocks. Capture taps append under a
	//    monotone clock, so the common case is already time-ordered and
	//    skips the copy+sort entirely; a filter or an unsorted capture
	//    falls back to a scratch copy.
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
	for i := range senderRecs {
		r := &senderRecs[i]
		rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}] = len(rep.Packets)
		rep.Packets = append(rep.Packets, PacketView{})
		rep.Packets[i].fromSender(r, senderOff)
	}

	// 2. Join the core and receiver captures against the sender index.
	join := root.Child("correlate.join")
	coreOff := in.offset(packet.PointCore)
	for _, r := range in.Core {
		if flowOK != nil && !flowOK[r.Flow] {
			continue
		}
		if i, ok := rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}]; ok {
			rep.Packets[i].joinCore(r.LocalTime - coreOff)
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
	if len(in.TBs) > 0 {
		reconstruct := root.Child("correlate.reconstructTBs")
		procs := sc.reconstructTBs(in.TBs)
		reconstruct.End()
		attribution := root.Child("correlate.attribution")
		rep.fifoLeft = make([]int64, 0, len(senderRecs))
		for _, r := range senderRecs {
			rep.fifoLeft = append(rep.fifoLeft, int64(r.Size))
		}
		sc.fifoLeft = rep.fifoLeft
		// Each drain iteration either completes a packet or exhausts a TB,
		// so the shared TBID backing never exceeds len(procs)+len(packets).
		sc.tbids = make([]uint64, 0, len(procs)+len(rep.Packets))
		sc.rep = rep
		sc.walk(in, 0)
		attribution.End()
	}
	return rep
}

// fromSender fills a zero view from the packet's sender record.
func (v *PacketView) fromSender(r *packet.Record, senderOff time.Duration) {
	v.Flow, v.Seq, v.Kind = r.Flow, r.Seq, r.Kind
	v.SentAt = r.LocalTime - senderOff
	v.SSRC, v.RTPTime, v.Marker = r.SSRC, r.RTPTime, r.Marker
}

// joinCore records the packet's corrected core sighting.
func (v *PacketView) joinCore(at time.Duration) {
	v.CoreAt, v.SeenCore, v.ULDelay = at, true, at-v.SentAt
}

// clearCore forgets the packet's core sighting.
func (v *PacketView) clearCore() {
	v.CoreAt, v.SeenCore, v.ULDelay = 0, false, 0
}

// walk replays the UE buffer's FIFO service order from process position
// from, starting at cursor sc.m: packets enter in sender-capture order;
// successful TBs drain UsedBytes each in transmission order. Byte
// conservation plus causality (a TB cannot carry a packet sent after the
// TB's transmission) pins down the mapping — the same reasoning Fig 9's
// dashed packet↔TB lines encode.
//
// rep.Packets is built 1:1 from the send-ordered sender records, so the
// packet slice IS the FIFO: sc.fifoLeft holds each packet's undrained
// bytes, and every packet's TBIDs are carved out of one shared backing
// array (appends to the current FIFO head are contiguous, and the head
// never moves backwards). Batch correlation walks once from position 0;
// a live correlator resumes from the earliest position new evidence can
// change, so it records a checkpoint at entry to every process.
func (sc *scratch) walk(in Input, from int) {
	procs, fifoLeft, tbids, pkts := sc.procs, sc.fifoLeft, sc.tbids, sc.rep.Packets
	slack := in.SlotDuration + in.MatchTolerance
	head, tbStart, first, last := sc.m.head, sc.m.tbStart, sc.m.first, sc.m.last
	live := sc.ckpt != nil
	sc.walked += len(procs) - from
	for pi := from; pi < len(procs); pi++ {
		if live {
			c := checkpoint{head: head + sc.shift, k: len(tbids) - tbStart}
			if head < len(fifoLeft) {
				c.left = fifoLeft[head]
			}
			sc.ckpt = append(sc.ckpt, c)
		}
		tb := &procs[pi]
		if tb.abandoned {
			continue
		}
		budget := tb.used
		for budget > 0 && head < len(fifoLeft) {
			v := &pkts[head]
			// Causality: this TB cannot carry a packet sent after its
			// transmission (within the sync tolerance plus a slot).
			if v.SentAt > tb.initialAt+slack {
				break
			}
			take := fifoLeft[head]
			if take > budget {
				take = budget
			}
			fifoLeft[head] -= take
			budget -= take
			if len(tbids) == tbStart {
				first = int32(pi)
			}
			last = int32(pi)
			tbids = append(tbids, tb.id)
			if fifoLeft[head] == 0 {
				end := len(tbids)
				v.TBIDs = tbids[tbStart:end:end]
				attributePacket(v, procs, first, last)
				head++
				tbStart = end
			}
		}
		if budget > 0 && head == len(fifoLeft) && pi < sc.dry {
			sc.dry = pi
		}
	}
	if end := len(tbids); end > tbStart {
		// The head packet drained only partially; it still carries
		// attribution for the bytes that did ride TBs.
		v := &pkts[head]
		v.TBIDs = tbids[tbStart:end:end]
		attributePacket(v, procs, first, last)
	}
	sc.tbids = tbids
	sc.m = cursor{head, tbStart, first, last}
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
	v.BSRWait = 0
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
// Telemetry normally arrives in transmission order, which makes the
// first-seen process order already sorted; the stable sort — and the
// re-index that keeps procIdx pointing at the moved processes — only runs
// when it is not.
func (sc *scratch) reconstructTBs(recs []telemetry.TBRecord) []tbProcess {
	out := make([]tbProcess, 0, len(recs))
	idx := make(map[uint64]int32, len(recs))
	for _, r := range recs {
		a := attemptOf(r, 0)
		j, ok := idx[r.TBID]
		if !ok {
			idx[r.TBID] = int32(len(out))
			out = append(out, newProcess(a))
			continue
		}
		out[j].merge(a)
	}
	if !sortedByInitialAt(out) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].initialAt < out[j].initialAt })
		for i := range out {
			idx[out[i].id] = int32(i)
		}
	}
	sc.procs, sc.procIdx = out, idx
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
