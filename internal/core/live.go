package core

import (
	"fmt"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

// LiveCorrelator is the streaming form of Correlate, for the paper's §5.1
// vision of "continuous, fine-grained measurement" feeding higher layers
// in real time: capture records and TB telemetry arrive incrementally,
// and fully-resolved packet views are emitted once a packet's fate is
// settled (observed at the core and matched to its transport blocks, or
// given up on after the flush horizon). It implements Ingest, the
// validated streaming boundary a session server holds against each feed.
//
// Internally it re-runs the batch pipeline over a sliding window — the
// batch correlator is cheap enough that clarity beats an incremental
// reimplementation — but every re-run recycles one persistent working set
// (report, indexes, FIFO and TBID buffers, the TB-process table the
// settle gate and the trim read back), so steady-state ingest performs no
// allocation at all, emitting or not. The emission contract (each packet
// exactly once, in send order, only when resolvable) is what a live
// consumer such as a PHY-aware congestion controller needs.
//
// The feed-order validation doubles as a structural guarantee: because
// sender records are enforced time-ordered and (when Input.Flows is set)
// flow-covered, each window's batch report is built 1:1 from the sender
// buffer, so position i of the buffer IS position i of the report. The
// emission and trim paths exploit that positional identity — duplicate
// (flow, seq, kind) keys, legal for sequence-less kinds like NTP cross
// traffic, can no longer alias each other through the key index.
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

	sender  []packet.Record
	core    []packet.Record
	tbs     []telemetry.TBRecord
	emitted int // prefix of send-ordered packets already emitted

	// Feed-validation state: per-stream capture heads, the duplicate
	// index, and the flow-coverage set derived from in.Flows. The
	// duplicate index is just the keys accepted at exactly lastSenderAt:
	// a replay of anything older already fails the order check. Being
	// independent of the retained window, it survives every trim.
	// headPeak is the most keys it has held since it was last made.
	lastSenderAt time.Duration
	lastCoreAt   time.Duration
	advanced     time.Duration
	headKeys     map[pktKey]struct{}
	headPeak     int
	coveredFlow  map[uint32]bool

	// Progress counters surfaced by Snapshot.
	emittedTotal int64
	trims        int64

	// sc is the recycled correlation working set. After each pass its
	// TB-process table (sc.procs, indexed by sc.procIdx) holds every
	// buffered TB's first and last attempt time; spentTB marks, per table
	// position, the processes a mid-stream trim discards.
	sc      scratch
	spentTB []bool
}

// LiveCorrelator implements the streaming ingest boundary.
var _ Ingest = (*LiveCorrelator)(nil)

// DefaultFlushAfter is the emission horizon NewLive sets: a packet still
// unresolved this long after it was sent is emitted as-is.
const DefaultFlushAfter = 500 * time.Millisecond

// NewLive creates a live correlator with the same configuration fields as
// the batch Input (captures inside `in` are ignored; feed records through
// the On* methods).
func NewLive(in Input, emit func(PacketView)) *LiveCorrelator {
	in.Sender, in.Core, in.SFU, in.Receiver = nil, nil, nil, nil
	lc := &LiveCorrelator{
		in:         in.withDefaults(),
		FlushAfter: DefaultFlushAfter,
		Emit:       emit,
		headKeys:   make(map[pktKey]struct{}),
		sc:         scratch{reuse: true},
	}
	if len(in.Flows) > 0 {
		lc.coveredFlow = make(map[uint32]bool, len(in.Flows))
		for _, f := range in.Flows {
			lc.coveredFlow[f] = true
		}
		// Uncovered records are rejected at the door, so the window
		// passes need no filter of their own.
		lc.in.Flows = nil
	}
	return lc
}

// OnSenderRecord feeds a point-① capture record. Records must arrive in
// capture order; a record behind the capture head, a replay of a record
// at the capture head, or a record outside Input.Flows is rejected
// without being ingested.
func (lc *LiveCorrelator) OnSenderRecord(r packet.Record) error {
	if r.LocalTime < lc.lastSenderAt {
		return fmt.Errorf("%w: sender %d/%d/%s at %v behind head %v",
			ErrOutOfOrder, r.Flow, r.Seq, r.Kind, r.LocalTime, lc.lastSenderAt)
	}
	if lc.coveredFlow != nil && !lc.coveredFlow[r.Flow] {
		return fmt.Errorf("%w: sender %d/%d/%s", ErrFlowNotCovered, r.Flow, r.Seq, r.Kind)
	}
	k := pktKey{r.Flow, r.Seq, r.Kind}
	if r.LocalTime > lc.lastSenderAt {
		lc.resetHead()
	}
	if _, dup := lc.headKeys[k]; dup {
		// Sequence-less kinds (NTP cross traffic) legitimately repeat a
		// key at distinct capture times; an identical timestamp means the
		// same record fed twice.
		return fmt.Errorf("%w: sender %d/%d/%s at %v", ErrDuplicate, r.Flow, r.Seq, r.Kind, r.LocalTime)
	}
	lc.headKeys[k] = struct{}{}
	lc.lastSenderAt = r.LocalTime
	lc.sender = append(lc.sender, r)
	return nil
}

// resetHead empties the duplicate index for a new capture timestamp.
// Clearing a map costs its capacity, which never shrinks, so once a
// burst has grown the map past 64 keys, a run under a quarter of that
// burst replaces it instead. Either way the reset is amortised O(1) per
// record, and a feed whose runs stay small never allocates here.
func (lc *LiveCorrelator) resetHead() {
	n := len(lc.headKeys)
	lc.headPeak = max(lc.headPeak, n)
	if lc.headPeak > 64 && 4*n < lc.headPeak {
		lc.headKeys, lc.headPeak = make(map[pktKey]struct{}), 0
		return
	}
	clear(lc.headKeys)
}

// OnCoreRecord feeds a point-② capture record. The same capture-order
// and flow-coverage validation as the sender stream applies; duplicates
// are harmless here (the join overwrites in place) and pass.
func (lc *LiveCorrelator) OnCoreRecord(r packet.Record) error {
	if r.LocalTime < lc.lastCoreAt {
		return fmt.Errorf("%w: core %d/%d/%s at %v behind head %v",
			ErrOutOfOrder, r.Flow, r.Seq, r.Kind, r.LocalTime, lc.lastCoreAt)
	}
	if lc.coveredFlow != nil && !lc.coveredFlow[r.Flow] {
		return fmt.Errorf("%w: core %d/%d/%s", ErrFlowNotCovered, r.Flow, r.Seq, r.Kind)
	}
	lc.lastCoreAt = r.LocalTime
	lc.core = append(lc.core, r)
	return nil
}

// OnTB feeds one TB telemetry record (any HARQ attempt). No ordering
// constraint: merged multi-cell telemetry legitimately interleaves in
// time, and the TB reconstruction sorts when needed.
func (lc *LiveCorrelator) OnTB(r telemetry.TBRecord) error {
	lc.tbs = append(lc.tbs, r)
	return nil
}

// Snapshot reports the feed's progress: emission and trim counts, the
// session clock, and the retained window sizes.
func (lc *LiveCorrelator) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		Emitted:        lc.emittedTotal,
		Pending:        lc.Pending(),
		Trims:          lc.trims,
		Advanced:       lc.advanced,
		BufferedSender: len(lc.sender),
		BufferedCore:   len(lc.core),
		BufferedTBs:    len(lc.tbs),
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
		lc.trim(horizon, nil, lc.in.offset(packet.PointSender))
		return nil
	}

	in := lc.in
	in.Sender = lc.sender
	in.Core = lc.core
	in.TBs = lc.tbs
	rep := lc.sc.correlate(in)
	if len(rep.Packets) != len(lc.sender) {
		// Unreachable given the feed validation (sorted order and flow
		// coverage make the report 1:1 with the sender buffer), but a
		// broken invariant here must not silently misemit.
		return fmt.Errorf("core: live window misaligned: %d views for %d sender records",
			len(rep.Packets), len(lc.sender))
	}

	// A failed TB attempt whose HARQ retransmission may still be in
	// flight is unsettled: if the retry arrives, the TB stops looking
	// abandoned and the FIFO redistributes every byte from its position
	// onward. Packets drained entirely by earlier TBs are unaffected, so
	// emission holds only at and after the earliest unsettled position.
	procs, procIdx := lc.sc.procs, lc.sc.procIdx
	settle := lc.in.HARQRTT + lc.in.MatchTolerance
	unsettled := time.Duration(1<<63 - 1)
	for i := range procs {
		if p := &procs[i]; p.abandoned && now < p.finalAt+settle && p.initialAt < unsettled {
			unsettled = p.initialAt
		}
	}

	// Emit, in send order, every not-yet-emitted packet that is either
	// fully resolved (seen at the core with TBs matched) or past the
	// flush horizon. The report is positionally identical to the sender
	// buffer, so index — not the (possibly aliased) key — selects views.
	senderOff := in.offset(packet.PointSender)
	for lc.emitted < len(lc.sender) {
		r := lc.sender[lc.emitted]
		v := &rep.Packets[lc.emitted]
		// Resolved means the view is final: observed at the core and — when
		// TB telemetry is in play — fully drained by the FIFO matcher, so
		// no later TB can extend its match (the FIFO head never moves
		// backwards). A causal feed implies drained whenever the core saw
		// the packet; the explicit check protects emission against feeds
		// that are not.
		resolved := v.SeenCore && (len(lc.tbs) == 0 ||
			(len(v.TBIDs) > 0 && rep.fifoLeft[lc.emitted] == 0))
		if resolved && unsettled < 1<<63-1 {
			for _, id := range v.TBIDs {
				if procs[procIdx[id]].initialAt >= unsettled {
					resolved = false
					break
				}
			}
		}
		expired := r.LocalTime-senderOff <= horizon
		if !resolved && !expired {
			break
		}
		if lc.Emit != nil {
			lc.Emit(*v)
		}
		lc.emitted++
		lc.emittedTotal++
	}

	// Trim state that can no longer influence unemitted packets.
	lc.trim(horizon, rep, senderOff)
	return nil
}

// trim discards consumed state so memory — and with it each Advance's
// re-correlation cost — stays bounded on long sessions.
//
// Fully drained — on every Advance with nothing pending, whether or not
// it correlated — the sender buffer resets and one retention rule keeps
// what a future sender record can still use. A core record survives if
// no emitted sender record consumed its key, its corrected time is at or
// after the sender head's corrected send time (a packet sent later
// reaches the core later), and it lies within a second of the flush
// horizon; telemetry survives within that same second. So a core record
// delivered ahead of its sender record (a sender clock running ahead)
// waits for it, and a feed with no sender records at all stays bounded.
//
// Mid-stream, the emitted sender prefix is cut where the batch matcher's
// state is settled, so a rerun over the trimmed buffers reproduces the
// full rerun for every kept packet:
//
//   - every trimmed packet must be fully drained (fifoLeft == 0) — a
//     packet with unmatched bytes still absorbs future TB budget, and
//     removing it would shift all later matches;
//   - the boundary cannot split a transport block: FIFO draining makes
//     each TB's carried packets contiguous, so it suffices that the last
//     trimmed and first kept packet share no TB.
//
// TBs carried only by trimmed packets have poured their budget into the
// prefix and can never serve a kept packet (the FIFO head never moves
// backwards), so their attempt records go too, as do settled TBs too old
// to pass the causality check against any kept-or-future packet.
func (lc *LiveCorrelator) trim(horizon time.Duration, rep *Report, senderOff time.Duration) {
	if lc.Pending() == 0 {
		if len(lc.sender) > 0 {
			lc.trims++
		}
		keepFrom := horizon - time.Second
		head := lc.lastSenderAt - senderOff
		coreOff := lc.in.offset(packet.PointCore)
		keptCore := lc.core[:0]
		for _, r := range lc.core {
			if rep != nil {
				if _, consumed := rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}]; consumed {
					continue
				}
			}
			if at := r.LocalTime - coreOff; at >= head && at >= keepFrom {
				keptCore = append(keptCore, r)
			}
		}
		lc.core = keptCore
		lc.sender = lc.sender[:0]
		lc.emitted = 0
		tbCut := 0
		for tbCut < len(lc.tbs) && lc.tbs[tbCut].At < keepFrom {
			tbCut++
		}
		lc.tbs = lc.tbs[tbCut:]
		return
	}
	if lc.emitted == 0 || rep == nil || rep.fifoLeft == nil {
		// Without TB telemetry there is no matcher state to settle; the
		// full-drain reset above bounds that regime.
		return
	}
	cut := lc.emitted
	for i := 0; i < cut; i++ {
		if rep.fifoLeft[i] != 0 {
			cut = i
			break
		}
	}
	for cut > 0 && sharesTB(rep.Packets[cut-1].TBIDs, rep.Packets[cut].TBIDs) {
		cut--
	}
	if cut == 0 {
		return
	}
	lc.trims++

	// Mark the TB processes spent on the prefix. Packets are walked in send
	// order, so a TB also carried by a kept packet ends up unmarked (the
	// boundary rule makes that unreachable, but the invariant is cheap to
	// enforce).
	procs, procIdx := lc.sc.procs, lc.sc.procIdx
	if cap(lc.spentTB) < len(procs) {
		lc.spentTB = make([]bool, len(procs))
	}
	spent := lc.spentTB[:len(procs)]
	clear(spent)
	for i := range rep.Packets {
		for _, id := range rep.Packets[i].TBIDs {
			spent[procIdx[id]] = i < cut
		}
	}
	// byKey is last-wins, so a key repeated past the cut (sequence-less
	// kinds) points at a kept packet. Point every trimmed key back into
	// the prefix: "byKey[k] < cut" then means "k was trimmed", and core
	// records of a repeating key cannot pile up behind its newest sender
	// record. The index is rebuilt by the next pass.
	for i, r := range lc.sender[:cut] {
		rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}] = i
	}

	// Settled old TBs: initial attempt too old to satisfy causality
	// against the first kept (hence any later) packet, and no attempt
	// recent enough for the HARQ process to still be running.
	firstKeptSent := lc.sender[cut].LocalTime - senderOff
	causalLimit := firstKeptSent - lc.in.SlotDuration - lc.in.MatchTolerance
	settleLimit := horizon - time.Second

	lc.sender = lc.sender[:copy(lc.sender, lc.sender[cut:])]
	lc.emitted -= cut
	keptCore := lc.core[:0]
	for _, r := range lc.core {
		if i, ok := rep.byKey[pktKey{r.Flow, r.Seq, r.Kind}]; !ok || i >= cut {
			keptCore = append(keptCore, r)
		}
	}
	lc.core = keptCore
	keptTBs := lc.tbs[:0]
	for _, tb := range lc.tbs {
		j := procIdx[tb.TBID]
		if p := &procs[j]; spent[j] || (p.initialAt < causalLimit && p.finalAt < settleLimit) {
			continue
		}
		keptTBs = append(keptTBs, tb)
	}
	lc.tbs = keptTBs
}

// Drain pushes the clock just far enough that every buffered sender
// record crosses the flush horizon and is emitted — the session-close
// path. The drain clock is derived from both the Advance head and the
// newest sender record translated to sent time, so it flushes everything
// even when the feeder never advanced the clock, or when record
// LocalTimes are absolute (e.g. epoch-based) and far ahead of it.
func (lc *LiveCorrelator) Drain() error {
	now := lc.advanced
	if head := lc.lastSenderAt - lc.in.offset(packet.PointSender); head > now {
		now = head
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
func (lc *LiveCorrelator) Pending() int { return len(lc.sender) - lc.emitted }
