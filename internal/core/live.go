package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

// LiveCorrelator is the correlator, for the paper's §5.1 vision of
// "continuous, fine-grained measurement" feeding higher layers in real
// time: capture records and TB telemetry arrive incrementally, and
// fully-resolved packet views are emitted once a packet's fate is settled
// (observed at the core and matched to its transport blocks, or given up
// on after the flush horizon). A session server holds one against each
// feed: records arrive through OnSenderRecord, OnCoreRecord and OnTB,
// Advance moves the session clock (emitting every packet whose fate is
// settled), and Snapshot reports the feed's progress without disturbing
// it. Correlate feeds one a session's complete captures at once.
//
// Every feed call validates its input and returns an explicit error
// instead of letting a malformed feed surface later as a misjoin:
//
//   - sender and core records must arrive in capture order (non-decreasing
//     LocalTime per stream) — ErrOutOfOrder otherwise;
//   - a sender record whose identity its flow already holds, or that a
//     trim retired, is a replay — ErrDuplicate; so is a sequence-less
//     record at its flow's newest sequence-less send time. Detection is
//     independent of the retained window, so it survives every trim: a
//     trim retires a flow's numbers in send order, and its flow keeps the
//     newest one retired;
//   - when Input.Flows is set, every sender and core record must belong to
//     a listed flow — ErrFlowNotCovered. The sender capture is the FIFO
//     the TB matcher replays, so an uncovered record would silently shift
//     every later packet's TB match;
//   - Advance's clock must never move backwards — ErrTimeRegression.
//
// TB telemetry carries no ordering constraint: multi-cell deployments
// merge per-cell streams whose timestamps legitimately interleave, and
// the TB reconstruction tolerates that. A call that returns an error has
// not ingested the offending record; the prior state is untouched and
// the feed may continue.
//
// It keeps the matcher's state between calls. A sender record appends
// its view and joins its identity's buffered core sighting; a core record
// joins its identity's view; a TB attempt merges into its HARQ process,
// which keeps the table in (initial transmission, first sighting) order.
// Advance resumes the FIFO matcher at the earliest process position new
// evidence can change — the first process an attempt inserted, moved or
// changed the time or fate of, or, once sender records arrive, the first
// whose budget a dry FIFO left over — from the checkpoint taken on
// entering it, and touches nothing before. A batch so costs O(new
// evidence), not O(window), every buffer is recycled (steady-state ingest
// allocates nothing), and after every Advance the state equals a one-shot
// feed of the retained records. The emission contract (each packet
// exactly once, in send order, only when resolvable) is what a live
// consumer such as a PHY-aware congestion controller needs.
//
// The feed-order validation doubles as a structural guarantee: sender
// records are time-ordered and flow-covered, so the views are 1:1 with
// the sender buffer and position i of the buffer IS view i. Emission and
// trim select by position, never by key: sequence-less kinds like NTP
// cross traffic have no identity.
type LiveCorrelator struct {
	in Input

	// FlushAfter is how long after its send time a packet may remain
	// unresolved before being emitted as-is (lost or unmatchable).
	FlushAfter time.Duration

	// Emit receives resolved packet views in send order. A view is
	// borrowed: its TBIDs alias the correlator's recycled buffers and are
	// valid only until the callback returns. A consumer that retains a
	// view keeps v.Clone() instead.
	Emit func(PacketView)

	// The retained window. sizes holds the sender records' sizes,
	// positionally identical to the views in rep.Packets and the drain
	// state in fifoLeft; emitted is the prefix already emitted. core is
	// the arrival-ordered log of core sightings, whose records trims
	// retire in place (coreLive); nCore counts the retained ones and the
	// key index sums them up per identity for the join. A TB attempt is
	// kept only merged into its process; nTBs counts the attempts of the
	// processes in the table. arrivals numbers the TB attempts.
	rep       *Report
	fifoLeft  []int64
	sizes     []int64
	emitted   int
	core      queue[coreRec]
	nCore     int
	nTBs      int
	arrivals  uint64
	senderOff time.Duration
	coreOff   time.Duration

	// Feed-validation and identity state: per-stream capture heads in
	// corrected time (noTime until the stream's first record) and each
	// flow's identity state. When in.Flows is set, flows is made with a
	// nil entry per covered flow and any other flow is uncovered.
	sentHead time.Duration
	coreHead time.Duration
	advanced time.Duration
	flows    map[uint32]*flowState

	// Progress counters surfaced by Snapshot.
	emittedTotal int64
	trims        int64

	// The matcher: the TB-process table (procs, indexed by procIdx) and
	// the shared backing array carved into per-packet TBIDs. m is the
	// cursor where the last walk stopped, ckpt the cursor at entry to each
	// process from position base on (heads numbered absolutely: a packet's
	// position plus shift), and dry the first process whose budget the
	// FIFO left over by running dry. A walk takes nothing before base, so
	// the state on entering any process there is the first packet,
	// untouched. dirty is the first process position the next walk must
	// revisit, and walked counts the positions walked, the matcher's work.
	// harq lists abandoned processes whose retry may still arrive (the
	// settle gate's candidates); nDead counts processes a trim dropped
	// whose slots await compactProcs.
	procs   []tbProcess
	procIdx map[uint64]int32
	tbids   []uint64
	m       cursor
	ckpt    []checkpoint
	base    int
	shift   int
	dry     int
	dirty   int
	walked  int
	harq    []uint64
	nDead   int
}

// coreRec is one retained core sighting: its key and corrected time.
type coreRec struct {
	key uint64
	at  time.Duration
}

// DefaultFlushAfter is the emission horizon NewLive sets: a packet still
// unresolved this long after it was sent is emitted as-is.
const DefaultFlushAfter = 500 * time.Millisecond

// NewLive creates a live correlator from an Input's configuration
// fields. Its captures are not fed — feed records through the On*
// methods — but their lengths size the buffers.
func NewLive(in Input, emit func(PacketView)) *LiveCorrelator {
	ns, nc, nt := len(in.Sender), len(in.Core), len(in.TBs)
	in.Sender, in.Core, in.SFU, in.Receiver, in.TBs = nil, nil, nil, nil, nil
	// Resolve the zero-means-default fields once, so the matcher, the
	// settle gate and the trim all read the same tolerance and HARQ
	// round-trip.
	if in.MatchTolerance == 0 {
		in.MatchTolerance = 5 * time.Millisecond
	}
	if in.HARQRTT == 0 {
		in.HARQRTT = 10 * time.Millisecond
	}
	lc := &LiveCorrelator{
		in:         in,
		FlushAfter: DefaultFlushAfter,
		Emit:       emit,
		rep:        &Report{Packets: make([]PacketView, 0, ns), byKey: newKeyIndex(ns)},
		fifoLeft:   make([]int64, 0, ns),
		sizes:      make([]int64, 0, ns),
		core:       queue[coreRec]{buf: make([]coreRec, 0, nc)},
		flows:      make(map[uint32]*flowState, len(in.Flows)),
		procs:      make([]tbProcess, 0, nt),
		procIdx:    make(map[uint64]int32, nt),
		tbids:      make([]uint64, 0, ns+nt),
		ckpt:       make([]checkpoint, 0, nt),
		dry:        noPos,
		sentHead:   noTime,
		coreHead:   noTime,
	}
	lc.senderOff, lc.coreOff = in.offset(packet.PointSender), in.offset(packet.PointCore)
	for _, f := range in.Flows {
		lc.flows[f] = nil
	}
	return lc
}

// flow returns a covered flow's identity state, anchoring a new flow's
// numbers at seq, or nil if Input.Flows leaves the flow out.
func (lc *LiveCorrelator) flow(id, seq uint32) *flowState {
	fs, ok := lc.flows[id]
	if fs == nil {
		if !ok && len(lc.in.Flows) > 0 {
			return nil
		}
		fs = &flowState{sent: seq, core: seq, recv: seq, tail: seq, seqlessAt: noTime}
		lc.flows[id] = fs
	}
	return fs
}

// OnSenderRecord feeds a point-① capture record. Records must arrive in
// capture order; a record behind the capture head, a replay (see
// ErrDuplicate), or a record outside Input.Flows is rejected without
// being ingested.
func (lc *LiveCorrelator) OnSenderRecord(r packet.Record) error {
	at := r.LocalTime - lc.senderOff
	if at < lc.sentHead {
		return fmt.Errorf("%w: sender %d/%d/%s at %v behind head %v",
			ErrOutOfOrder, r.Flow, r.Seq, r.Kind, r.LocalTime, lc.sentHead+lc.senderOff)
	}
	fs := lc.flow(r.Flow, r.Seq)
	if fs == nil {
		return fmt.Errorf("%w: sender %d/%d/%s", ErrFlowNotCovered, r.Flow, r.Seq, r.Kind)
	}
	seqless, x := sequenceLess(r.Kind), extend(fs.sent, r.Seq)
	k := key(r.Flow, x)
	var s keyState
	dup := seqless && at == fs.seqlessAt
	if !seqless {
		var held bool
		s, held = lc.rep.byKey.get(k)
		dup = held && s.view != noView || fs.trimmed && int32(x-fs.tail) <= 0
	}
	if dup {
		return fmt.Errorf("%w: sender %d/%d/%s at %v", ErrDuplicate, r.Flow, r.Seq, r.Kind, r.LocalTime)
	}
	lc.sentHead = at
	lc.sizes = append(lc.sizes, int64(r.Size))
	lc.rep.Packets = append(lc.rep.Packets, PacketView{})
	v := &lc.rep.Packets[len(lc.rep.Packets)-1]
	v.Flow, v.Seq, v.Kind, v.SentAt = r.Flow, r.Seq, r.Kind, at
	v.SSRC, v.RTPTime, v.Marker = r.SSRC, r.RTPTime, r.Marker
	if seqless {
		fs.seqlessAt = at
	} else {
		track(&fs.sent, r.Seq)
		s.view = len(lc.rep.Packets) - 1 + lc.shift
		lc.rep.byKey.set(k, s)
		if s.n > 0 {
			lc.joinCore(v, s.at)
		}
	}
	lc.fifoLeft = append(lc.fifoLeft, int64(r.Size))
	// A dry FIFO left budget over that the new packet can take.
	lc.dirty = min(lc.dirty, lc.dry)
	return nil
}

// OnCoreRecord feeds a point-② capture record. The same capture-order
// and flow-coverage validation as the sender stream applies; duplicates
// are harmless here (the join overwrites in place) and pass. A record
// that can join nothing is dropped once validated: a sequence-less one,
// and one whose identity a trim already retired with its view.
func (lc *LiveCorrelator) OnCoreRecord(r packet.Record) error {
	at := r.LocalTime - lc.coreOff
	if at < lc.coreHead {
		return fmt.Errorf("%w: core %d/%d/%s at %v behind head %v",
			ErrOutOfOrder, r.Flow, r.Seq, r.Kind, r.LocalTime, lc.coreHead+lc.coreOff)
	}
	fs := lc.flow(r.Flow, r.Seq)
	if fs == nil {
		return fmt.Errorf("%w: core %d/%d/%s", ErrFlowNotCovered, r.Flow, r.Seq, r.Kind)
	}
	lc.coreHead = at
	if sequenceLess(r.Kind) {
		return nil
	}
	x := track(&fs.core, r.Seq)
	if fs.trimmed && int32(x-fs.tail) <= 0 {
		return nil
	}
	k := key(r.Flow, x)
	s, ok := lc.rep.byKey.get(k)
	if !ok {
		s.view = noView
	}
	s.at, s.n = at, s.n+1
	lc.rep.byKey.set(k, s)
	lc.core.push(coreRec{k, at})
	lc.nCore++
	if s.view != noView {
		lc.joinCore(&lc.rep.Packets[s.view-lc.shift], at)
	}
	return nil
}

// joinCore joins view v to its core sighting at corrected time at,
// unless the sighting precedes the send by more than the clock slack
// (SlotDuration + MatchTolerance): a clock error that large would give a
// negative uplink delay, so the join is refused and counted.
func (lc *LiveCorrelator) joinCore(v *PacketView, at time.Duration) {
	if at < v.SentAt-lc.in.SlotDuration-lc.in.MatchTolerance {
		lc.rep.RefusedJoins++
		return
	}
	v.joinCore(at)
}

// noTime marks a capture head no record has set: a clock running behind
// stamps records before time zero, so zero cannot.
const noTime = time.Duration(math.MinInt64)

// OnTB feeds one TB telemetry record (any HARQ attempt). No ordering
// constraint: merged multi-cell telemetry legitimately interleaves in
// time, and the process table keeps its order whatever the arrival order.
func (lc *LiveCorrelator) OnTB(r telemetry.TBRecord) error {
	a := tbAttempt{r.TBID, r.At, int64(r.UsedBytes), lc.arrivals, int32(r.HARQRound), r.Grant, r.Failed}
	lc.nTBs++
	lc.arrivals++
	lc.addTB(a)
	return nil
}

// addTB merges one attempt into the TB-process table. If the attempt
// created the process or changed its time or fate, it re-sorts the
// process, lowers dirty to the first position affected and makes an
// abandoned process a settle-gate candidate.
func (lc *LiveCorrelator) addTB(a tbAttempt) {
	j, ok := lc.procIdx[a.id]
	if !ok {
		lc.procs = append(lc.procs, newProcess(a))
		j = int32(len(lc.procs) - 1)
	} else {
		p := &lc.procs[j]
		was := *p
		p.merge(a)
		if p.initialAt == was.initialAt && p.finalAt == was.finalAt && p.abandoned == was.abandoned {
			return
		}
	}
	to := lc.place(int(j))
	lc.dirty = min(lc.dirty, int(j), to)
	if p := &lc.procs[to]; p.abandoned {
		lc.harq = append(lc.harq, p.id)
	}
}

// place moves the process at position j until the table is back in
// (initialAt, seen) order, re-indexing each process it passes, and
// returns the new position. Checkpoints stay put: the one at the lower
// of the two positions is still the state on entering it, and the walk
// resumes there.
func (lc *LiveCorrelator) place(j int) int {
	procs, p := lc.procs, lc.procs[j]
	for ; j > 0 && p.before(&procs[j-1]); j-- {
		lc.shiftProc(j, j-1)
	}
	for ; j+1 < len(procs) && procs[j+1].before(&p); j++ {
		lc.shiftProc(j, j+1)
	}
	procs[j] = p
	lc.procIdx[p.id] = int32(j)
	return j
}

// shiftProc moves the process at position from to position to.
func (lc *LiveCorrelator) shiftProc(to, from int) {
	lc.procs[to] = lc.procs[from]
	if p := &lc.procs[to]; !p.dead {
		lc.procIdx[p.id] = int32(to)
	}
}

// Snapshot reports the feed's progress: emission and trim counts, the
// session clock, and the retained window sizes.
func (lc *LiveCorrelator) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		Emitted:        lc.emittedTotal,
		Pending:        lc.Pending(),
		Trims:          lc.trims,
		RefusedJoins:   lc.rep.RefusedJoins,
		Advanced:       lc.advanced,
		BufferedSender: len(lc.sizes),
		BufferedCore:   lc.nCore,
		BufferedTBs:    lc.nTBs,
	}
}

// Advance declares that the live clock reached now: every packet sent
// before now-FlushAfter is resolved (or given up on) and emitted.
func (lc *LiveCorrelator) Advance(now time.Duration) error {
	if now < lc.advanced {
		return fmt.Errorf("%w: %v behind %v", ErrTimeRegression, now, lc.advanced)
	}
	lc.advanced = now
	horizon := now - lc.FlushAfter
	if lc.Pending() == 0 {
		// Nothing to correlate, but a sender-silent feed still delivers
		// core records and telemetry: retention runs regardless.
		lc.trim(horizon)
		return nil
	}
	lc.match()

	// A failed TB attempt whose HARQ retransmission may still be in
	// flight is unsettled: if the retry arrives, the TB stops looking
	// abandoned and the FIFO redistributes every byte from its position
	// onward. Packets drained entirely by earlier TBs are unaffected, so
	// emission holds only at and after the earliest unsettled position.
	unsettled := lc.unsettled(now)

	// Emit, in send order, every not-yet-emitted packet that is either
	// fully resolved (seen at the core with TBs matched) or past the
	// flush horizon. Views are positionally identical to the sender
	// buffer, so index — not identity, which sequence-less kinds lack —
	// selects them.
	for lc.emitted < len(lc.sizes) {
		v := &lc.rep.Packets[lc.emitted]
		// Resolved means the view is final: observed at the core (a
		// sequence-less packet never is) and — when TB telemetry is in
		// play — fully drained by the FIFO matcher, so no later TB can
		// extend its match (the FIFO head never moves backwards). A causal
		// feed implies drained whenever the core saw the packet; the
		// explicit check protects emission against feeds that are not.
		resolved := (v.SeenCore || sequenceLess(v.Kind)) && (lc.nTBs == 0 ||
			(len(v.TBIDs) > 0 && lc.fifoLeft[lc.emitted] == 0))
		if resolved && unsettled < 1<<63-1 {
			for _, id := range v.TBIDs {
				if lc.procs[lc.procIdx[id]].initialAt >= unsettled {
					resolved = false
					break
				}
			}
		}
		if !resolved && v.SentAt > horizon {
			break
		}
		if lc.Emit != nil {
			lc.Emit(*v)
		}
		lc.emitted++
		lc.emittedTotal++
	}

	// Trim state that can no longer influence unemitted packets.
	lc.trim(horizon)
	return nil
}

// match brings the views up to date with the evidence fed since the last
// walk: the matcher rewinds to its checkpoint at position dirty — or
// continues where it stopped, if that process was never walked — and
// walks the rest of the table.
func (lc *LiveCorrelator) match() {
	from := lc.dirty
	if from < len(lc.procs) {
		var c checkpoint
		rewound := from < lc.base+len(lc.ckpt)
		if rewound {
			c = checkpoint{head: lc.shift}
			if from >= lc.base {
				c = lc.ckpt[from-lc.base]
			}
		}
		// The walk appends at most one TBID per process walked plus one
		// per packet, after the rewind restores the head's.
		need := len(lc.procs) - from + len(lc.sizes) + c.k
		if cap(lc.tbids)-len(lc.tbids) < need {
			lc.repack(need)
		}
		if rewound {
			lc.rewind(c)
		}
		if from <= lc.dry {
			lc.dry = noPos
		}
		lc.base = min(lc.base, from)
		lc.ckpt = lc.ckpt[:from-lc.base]
		lc.walk(from)
	}
	lc.dirty = len(lc.procs)
}

// rewind restores the matcher to checkpoint c and returns every view the
// walk will re-derive to its unmatched state. A checkpoint whose head
// packet was trimmed stands for the first retained packet, untouched:
// every process before it carried only trimmed packets (and went with
// them) or cannot carry a later one.
func (lc *LiveCorrelator) rewind(c checkpoint) {
	head := c.head - lc.shift
	if head < 0 {
		head, c = 0, checkpoint{}
	}
	m := cursor{head: head, tbStart: len(lc.tbids)}
	var ids []uint64
	if c.k > 0 {
		ids = lc.rep.Packets[head].TBIDs[:c.k]
		m.first, m.last = lc.procIdx[ids[0]], lc.procIdx[ids[c.k-1]]
	}
	for j := head; j <= lc.m.head && j < len(lc.sizes); j++ {
		v := &lc.rep.Packets[j]
		v.TBIDs, v.GrantKind, v.QueueWait, v.BSRWait, v.HARQDelay = nil, 0, 0, 0, 0
		lc.fifoLeft[j] = lc.sizes[j]
	}
	if c.k > 0 {
		// Every take records a TBID, so a head without any is untouched —
		// perhaps not even fed when the checkpoint was taken.
		lc.tbids = append(lc.tbids, ids...)
		lc.fifoLeft[head] = c.left
	}
	lc.m = m
}

// repack moves the retained views' TBIDs to the front of the shared
// backing array — or into one twice the size they and need take —
// dropping the IDs of trimmed and re-derived packets. Views hold their
// IDs in packet order, so packing in that order only ever copies down.
func (lc *LiveCorrelator) repack(need int) {
	live := 0
	for i := range lc.rep.Packets {
		live += len(lc.rep.Packets[i].TBIDs)
	}
	ids := lc.tbids[:0]
	if 2*(live+need) > cap(ids) {
		ids = make([]uint64, 0, 2*(live+need))
	}
	for i := range lc.rep.Packets {
		if v := &lc.rep.Packets[i]; len(v.TBIDs) > 0 {
			start := len(ids)
			ids = append(ids, v.TBIDs...)
			v.TBIDs = ids[start:len(ids):len(ids)]
		}
	}
	// The head's IDs, if any, are the last packed.
	lc.m.tbStart = len(ids) - (len(lc.tbids) - lc.m.tbStart)
	lc.tbids = ids
}

// unsettled returns the earliest initial transmission among abandoned
// processes whose retransmission may still arrive, dropping the
// candidates that have settled.
func (lc *LiveCorrelator) unsettled(now time.Duration) time.Duration {
	settle := lc.in.HARQRTT + lc.in.MatchTolerance
	earliest := time.Duration(1<<63 - 1)
	kept := lc.harq[:0]
	for _, id := range lc.harq {
		j, ok := lc.procIdx[id]
		if !ok {
			continue
		}
		if p := &lc.procs[j]; p.abandoned && now < p.finalAt+settle {
			kept = append(kept, id)
			earliest = min(earliest, p.initialAt)
		}
	}
	lc.harq = kept
	return earliest
}

// trim discards consumed state so memory stays bounded on long sessions.
//
// Fully drained — on every Advance with nothing pending, whether or not
// it correlated — the sender buffer resets and one retention rule keeps
// what a future sender record can still use. A core record survives if
// no emitted sender record consumed its identity, its corrected time is
// at or after the sender head's corrected send time (a packet sent later
// reaches the core later), and it lies within a second of the flush
// horizon. A TB process is kept or dropped whole: it goes once its last
// attempt is more than that second old. So a core record delivered
// ahead of its sender record (a sender clock running ahead) waits for
// it, a HARQ process straddling the cut keeps its first attempt, and a
// feed with no sender records at all stays bounded.
//
// Mid-stream, the same time rule drops the core sightings no view holds,
// and the emitted sender prefix is cut where the matcher's state is
// settled, so the state over the trimmed buffers equals a batch pass
// over them for every kept packet:
//
//   - every trimmed packet must be fully drained (fifoLeft == 0) — a
//     packet with unmatched bytes still absorbs future TB budget, and
//     removing it would shift all later matches;
//   - the boundary cannot split a transport block: FIFO draining makes
//     each TB's carried packets contiguous, so it suffices that the last
//     trimmed and first kept packet share no TB.
//
// TBs carried by trimmed packets have poured their budget into the prefix
// and can never serve a kept packet (the FIFO head never moves
// backwards), so their processes go too, as do settled TBs too old to
// pass the causality check against any kept-or-future packet.
//
// Each step costs what it removes: the drained prefix starts at the
// matcher head, old core sightings lead their log, spent processes are
// the trimmed packets' TBIDs, too-old processes lead the table, and
// retired records and processes are compacted away once they make up a
// quarter of their buffer.
func (lc *LiveCorrelator) trim(horizon time.Duration) {
	keepFrom := horizon - time.Second
	coreFrom := keepFrom
	if lc.Pending() == 0 {
		if len(lc.sizes) > 0 {
			lc.trims++
		}
		lc.retire(len(lc.sizes))
		lc.m, lc.tbids, lc.ckpt, lc.dry = cursor{}, lc.tbids[:0], lc.ckpt[:0], noPos
		coreFrom = max(lc.sentHead, keepFrom)
		lc.dropSettled(keepFrom, keepFrom)
		// No packet sent from now on precedes the sender head, so a kept
		// process whose transmission causality bars the head from takes
		// nothing: the next walk starts past them.
		slack := lc.in.SlotDuration + lc.in.MatchTolerance
		lc.base = sort.Search(len(lc.procs), func(j int) bool { return lc.procs[j].initialAt+slack >= lc.sentHead })
		lc.dirty = lc.base
	} else if lc.nTBs > 0 && lc.emitted > 0 {
		// Without TB telemetry there is no matcher state to settle; the
		// full-drain reset above bounds that regime.
		cut := min(lc.m.head, lc.emitted)
		for cut < lc.emitted && lc.fifoLeft[cut] == 0 {
			cut++
		}
		pkts := lc.rep.Packets
		for cut > 0 && sharesTB(pkts[cut-1].TBIDs, pkts[cut].TBIDs) {
			cut--
		}
		if cut > 0 {
			lc.trims++
			for i := range pkts[:cut] {
				for _, id := range pkts[i].TBIDs {
					lc.drop(id)
				}
			}
			// Settled old TBs: initial attempt too old to satisfy causality
			// against the first kept (hence any later) packet, and no
			// attempt recent enough for the HARQ process to still be running.
			lc.dropSettled(min(pkts[cut].SentAt-lc.in.SlotDuration-lc.in.MatchTolerance, keepFrom), keepFrom)
			lc.retire(cut)
		}
	}
	lc.dropCore(coreFrom)
	if 4*lc.nDead > len(lc.procs) {
		lc.compactProcs()
	}
	if 4*lc.nCore < 3*len(lc.core.items()) {
		lc.core.keep(lc.coreLive)
	}
}

// dropCore drops, from the front of the core log, the sightings older
// than from that no view holds, stopping at the first one a view holds.
func (lc *LiveCorrelator) dropCore(from time.Duration) {
	i := lc.core.off
	for ; i < len(lc.core.buf); i++ {
		c := &lc.core.buf[i]
		s, ok := lc.rep.byKey.get(c.key)
		if !ok {
			continue // retired with its view
		}
		if c.at >= from || s.view != noView {
			break
		}
		lc.nCore--
		if s.n > 1 {
			s.n--
			lc.rep.byKey.set(c.key, s)
		} else {
			lc.rep.byKey.del(c.key)
		}
	}
	lc.core.off = i
}

// retire removes the first cut packets from the window, and their core
// sightings with them. Each flow's numbers retire in send order, so its
// tail extends them and keeps the newest. Positions shift down by cut;
// the key index stores positions plus lc.shift, so it needs no rewrite.
func (lc *LiveCorrelator) retire(cut int) {
	for i := range lc.rep.Packets[:cut] {
		v := &lc.rep.Packets[i]
		if sequenceLess(v.Kind) {
			continue
		}
		fs := lc.flow(v.Flow, v.Seq)
		k := key(v.Flow, track(&fs.tail, v.Seq))
		fs.trimmed = true
		s, _ := lc.rep.byKey.get(k)
		lc.nCore -= s.n
		lc.rep.byKey.del(k)
	}
	lc.sizes = lc.sizes[:copy(lc.sizes, lc.sizes[cut:])]
	lc.rep.Packets = lc.rep.Packets[:copy(lc.rep.Packets, lc.rep.Packets[cut:])]
	lc.fifoLeft = lc.fifoLeft[:copy(lc.fifoLeft, lc.fifoLeft[cut:])]
	lc.emitted -= cut
	lc.shift += cut
	// Only an unmatched zero-size head can fall in the prefix.
	lc.m.head = max(lc.m.head-cut, 0)
}

// dropSettled drops every process begun before limit whose last attempt
// is older than keepFrom. No attempt precedes the initial one and the
// table is in initialAt order, so the scan ends at the first process
// begun at or after limit.
func (lc *LiveCorrelator) dropSettled(limit, keepFrom time.Duration) {
	for j := 0; j < len(lc.procs) && lc.procs[j].initialAt < limit; j++ {
		if p := &lc.procs[j]; !p.dead && p.finalAt < keepFrom {
			lc.drop(p.id)
		}
	}
}

// drop removes a TB process from the table; its slot stays, skipped by
// the matcher, until compactProcs.
func (lc *LiveCorrelator) drop(id uint64) {
	j, ok := lc.procIdx[id]
	if !ok {
		return
	}
	p := &lc.procs[j]
	p.dead, p.abandoned = true, true
	delete(lc.procIdx, id)
	lc.nTBs -= int(p.nrec)
	lc.nDead++
}

// compactProcs closes the slots of dropped processes, moving checkpoints
// and the matcher's process positions with their processes.
func (lc *LiveCorrelator) compactProcs() {
	kept, dirty, base, walked, dry := lc.procs[:0], 0, 0, 0, noPos
	for i, p := range lc.procs {
		if i == lc.dry {
			dry = len(kept)
		}
		if p.dead {
			continue
		}
		if i < lc.dirty {
			dirty++
		}
		if i < lc.base {
			base++
		} else if i < lc.base+len(lc.ckpt) {
			lc.ckpt[walked] = lc.ckpt[i-lc.base]
			walked++
		}
		if i != len(kept) {
			lc.procIdx[p.id] = int32(len(kept))
		}
		kept = append(kept, p)
	}
	lc.procs, lc.base, lc.ckpt, lc.dry = kept, base, lc.ckpt[:walked], dry
	lc.dirty, lc.nDead = dirty, 0
	if lc.m.tbStart < len(lc.tbids) {
		lc.m.first, lc.m.last = lc.procIdx[lc.tbids[lc.m.tbStart]], lc.procIdx[lc.tbids[len(lc.tbids)-1]]
	}
}

// coreLive reports whether a logged core sighting is still retained:
// trims drop an identity's sightings from the front of the log or with
// its view, and a retired identity never returns.
func (lc *LiveCorrelator) coreLive(c *coreRec) bool {
	_, ok := lc.rep.byKey.get(c.key)
	return ok
}

// queue is an arrival-ordered log consumed from the front. Dropping a
// prefix moves an offset; the survivors move back to the start of the
// backing array once the offset reaches half of it, so each record is
// copied amortised O(1) times and steady state reuses one allocation.
type queue[T any] struct {
	buf []T
	off int
}

func (q *queue[T]) push(x T) {
	if len(q.buf) == cap(q.buf) && 2*q.off >= len(q.buf) {
		q.buf, q.off = q.buf[:copy(q.buf, q.buf[q.off:])], 0
	}
	q.buf = append(q.buf, x)
}

func (q *queue[T]) items() []T { return q.buf[q.off:] }

// keep filters the log in place down to the records live retains.
func (q *queue[T]) keep(live func(*T) bool) {
	kept := q.buf[:0]
	for i := q.off; i < len(q.buf); i++ {
		if live(&q.buf[i]) {
			kept = append(kept, q.buf[i])
		}
	}
	q.buf, q.off = kept, 0
}

// Drain pushes the clock just far enough that every buffered sender
// record crosses the flush horizon and is emitted — the session-close
// path. The drain clock is derived from both the Advance head and the
// newest sender record translated to sent time, so it flushes everything
// even when the feeder never advanced the clock, or when record
// LocalTimes are absolute (e.g. epoch-based) and far ahead of it.
func (lc *LiveCorrelator) Drain() error {
	now := lc.advanced
	if lc.sentHead > now {
		now = lc.sentHead
	}
	return lc.Advance(now + lc.FlushAfter + time.Second)
}

// sharesTB reports whether two TB id sets intersect.
func sharesTB(a, b []uint64) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Pending reports how many fed packets await emission.
func (lc *LiveCorrelator) Pending() int { return len(lc.sizes) - lc.emitted }
