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
	"cmp"
	"slices"
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

	// TBs is the telemetry of the monitored UE's transport blocks (all
	// HARQ attempts). The matcher never reads their PacketIDs.
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
	// RefusedJoins counts the core sightings refused a join because they
	// precede the packet's send by more than the clock slack: a clock error
	// larger than the tolerance, a missing sample rather than a view with a
	// negative uplink delay.
	RefusedJoins int64
	// byKey is the key index: each packet identity's view and core
	// sightings.
	byKey keyIndex
	// fifoLeft holds, per Packets index, the bytes the TB matcher's FIFO
	// replay never drained into a transport block (nil when no TBs were
	// supplied).
	fifoLeft []int64
}

// A packet's identity is its flow and extended sequence number, packed
// into one key. Each capture point extends a flow's 16-bit transport-wide
// numbers on its own (RFC 3550 appendix A.1): a number lands within half
// a cycle of the newest one that point has seen, starting from the
// flow's first number at any point. Sequence-less kinds repeat Seq 0 on
// every packet and have no identity: they keep their place and bytes in
// the FIFO but join no core or receiver sighting.
func key(flow, ext uint32) uint64 { return uint64(flow)<<32 | uint64(ext) }

// sequenceLess reports whether a kind carries no sequence number.
func sequenceLess(k packet.Kind) bool {
	return k == packet.KindCross || k == packet.KindICMP || k == packet.KindRTCP
}

// extend returns where seq falls within half a cycle of the extended
// number ref.
func extend(ref, seq uint32) uint32 { return ref + uint32(int16(uint16(seq)-uint16(ref))) }

// track extends seq against the newest extended number and keeps the
// newer of the two.
func track(newest *uint32, seq uint32) uint32 {
	x := extend(*newest, seq)
	if int32(x-*newest) > 0 {
		*newest = x
	}
	return x
}

// flowState is one flow's identity state: each capture point's newest
// extended number, the newest number a trim retired (the flow's first
// number until one did), and the newest send time of its sequence-less
// records.
type flowState struct {
	sent, core, recv, tail uint32
	trimmed                bool
	seqlessAt              time.Duration
}

// keyState is one identity's entry in the index: the position of its
// view (plus the live window's shift; noView if it has none) and a
// summary of its retained core sightings — the newest one's corrected
// time and their count. An identity with neither a view nor a sighting
// has no entry.
type keyState struct {
	view int
	at   time.Duration
	n    int
}

// noView marks a key whose core sightings await their sender record.
const noView = -1

// keyIndex is the key index behind a counter: every lookup, insert and
// delete goes through it and counts one probe, so probes is the work the
// correlator did on the index, whoever asked for it — what the live
// duplicate guard must keep O(1) per record
// (TestIngestSameTimestampBurstLinear).
type keyIndex struct {
	m      map[uint64]keyState
	probes int
}

func newKeyIndex(n int) keyIndex { return keyIndex{m: make(map[uint64]keyState, n)} }

func (x *keyIndex) get(k uint64) (keyState, bool) {
	x.probes++
	s, ok := x.m[k]
	return s, ok
}

func (x *keyIndex) set(k uint64, s keyState) {
	x.probes++
	x.m[k] = s
}

func (x *keyIndex) del(k uint64) {
	x.probes++
	delete(x.m, k)
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

// Correlate correlates one session's complete captures: it feeds every
// record once into a LiveCorrelator, joins the receiver capture against
// its key index, walks the matcher once and returns the window it holds
// as the Report — the state a live feed of the same records reaches,
// read without emitting or trimming. Each call returns a freshly
// allocated Report whose memory is independent of the input slices.
//
// It accepts captures a live feed rejects:
//   - an unsorted sender or core capture is correlated from a sorted copy
//     (the core copy stable by LocalTime);
//   - records of flows outside Input.Flows are dropped;
//   - a replay of a sender record (an identity its flow already holds, or
//     a sequence-less record at its flow's newest sequence-less send
//     time) is dropped.
func Correlate(in Input) *Report {
	return feedOnce(in).rep
}

// feedOnce is Correlate's feed: a LiveCorrelator given every record of
// in and matched, never advanced. Stage spans go to the global obs
// timeline; with none installed they are inert zero values.
func feedOnce(in Input) *LiveCorrelator {
	root := obs.StartSpan("correlate")
	defer root.End()
	lc := NewLive(in, nil)
	rep := lc.rep

	join := root.Child("correlate.join")
	sender, core := in.Sender, in.Core
	if !packet.IsSortedByTime(sender) {
		sender = slices.Clone(sender)
		sort.Slice(sender, func(i, j int) bool { return sender[i].LocalTime < sender[j].LocalTime })
	}
	if !packet.IsSortedByTime(core) {
		core = slices.Clone(core)
		slices.SortStableFunc(core, func(a, b packet.Record) int { return cmp.Compare(a.LocalTime, b.LocalTime) })
	}
	// Uncovered records are skipped, not fed to be rejected: in a shared
	// capture most records are other UEs'.
	for i := range sender {
		if lc.flow(sender[i].Flow, sender[i].Seq) != nil {
			_ = lc.OnSenderRecord(sender[i]) // a rejected record is dropped
		}
	}
	for i := range core {
		if lc.flow(core[i].Flow, core[i].Seq) != nil {
			_ = lc.OnCoreRecord(core[i]) // a rejected record is dropped
		}
	}
	// Only covered records reached the index, so it filters the receiver
	// capture too.
	recvOff := in.offset(packet.PointReceiver)
	for _, r := range in.Receiver {
		if sequenceLess(r.Kind) {
			continue
		}
		fs := lc.flow(r.Flow, r.Seq)
		if fs == nil {
			continue
		}
		s, ok := rep.byKey.get(key(r.Flow, track(&fs.recv, r.Seq)))
		if !ok || s.view == noView {
			continue
		}
		v := &rep.Packets[s.view]
		v.ReceiverAt, v.SeenRecv = r.LocalTime-recvOff, true
		if v.SeenCore {
			v.WANDelay = v.ReceiverAt - v.CoreAt
			if in.ProbeOWDBaseline > 0 {
				v.SFUDelay = max(v.WANDelay-in.ProbeOWDBaseline, 0)
			}
		}
	}
	join.End()

	if len(in.TBs) > 0 {
		reconstruct := root.Child("correlate.reconstructTBs")
		for _, r := range in.TBs {
			_ = lc.OnTB(r) // never fails
		}
		reconstruct.End()
		attribution := root.Child("correlate.attribution")
		lc.match()
		attribution.End()
		rep.fifoLeft = lc.fifoLeft
	}
	return lc
}

// joinCore records the packet's corrected core sighting.
func (v *PacketView) joinCore(at time.Duration) {
	v.CoreAt, v.SeenCore, v.ULDelay = at, true, at-v.SentAt
}

// walk replays the UE buffer's FIFO service order from process position
// from, starting at cursor lc.m: packets enter in sender-capture order;
// successful TBs drain UsedBytes each in transmission order. Byte
// conservation plus causality (a TB cannot carry a packet sent after the
// TB's transmission) pins down the mapping — the same reasoning Fig 9's
// dashed packet↔TB lines encode.
//
// rep.Packets is built 1:1 from the send-ordered sender records, so the
// packet slice IS the FIFO: lc.fifoLeft holds each packet's undrained
// bytes, and every packet's TBIDs are carved out of one shared backing
// array (appends to the current FIFO head are contiguous, and the head
// never moves backwards). A later walk resumes from the earliest
// position new evidence can change, so each records a checkpoint at
// entry to every process.
func (lc *LiveCorrelator) walk(from int) {
	procs, fifoLeft, tbids, pkts := lc.procs, lc.fifoLeft, lc.tbids, lc.rep.Packets
	slack := lc.in.SlotDuration + lc.in.MatchTolerance
	head, tbStart, first, last := lc.m.head, lc.m.tbStart, lc.m.first, lc.m.last
	lc.walked += len(procs) - from
	for pi := from; pi < len(procs); pi++ {
		c := checkpoint{head: head + lc.shift, k: len(tbids) - tbStart}
		if head < len(fifoLeft) {
			c.left = fifoLeft[head]
		}
		lc.ckpt = append(lc.ckpt, c)
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
		if budget > 0 && head == len(fifoLeft) && pi < lc.dry {
			lc.dry = pi
		}
	}
	if end := len(tbids); end > tbStart {
		// The head packet drained only partially; it still carries
		// attribution for the bytes that did ride TBs.
		v := &pkts[head]
		v.TBIDs = tbids[tbStart:end:end]
		attributePacket(v, procs, first, last)
	}
	lc.tbids = tbids
	lc.m = cursor{head, tbStart, first, last}
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
