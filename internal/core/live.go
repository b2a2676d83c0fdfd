package core

import (
	"fmt"
	"sort"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

// LiveCorrelator is the streaming form of Correlate, for the paper's §5.1
// vision of "continuous, fine-grained measurement" feeding higher layers
// in real time: capture records and TB telemetry arrive incrementally,
// and fully-resolved packet views are emitted once a packet's fate is
// settled (observed at the core and matched to its transport blocks, or
// given up on after the flush horizon). It is the validated streaming
// boundary a session server holds against each feed: records arrive
// through OnSenderRecord, OnCoreRecord and OnTB, Advance moves the
// session clock (emitting every packet whose fate is settled), and
// Snapshot reports the feed's progress without disturbing it.
//
// Every feed call validates its input and returns an explicit error
// instead of letting a malformed feed surface later as a misjoin:
//
//   - sender and core records must arrive in capture order (non-decreasing
//     LocalTime per stream) — ErrOutOfOrder otherwise;
//   - a sender record identical in (flow, seq, kind, LocalTime) to one
//     already fed is a replay — ErrDuplicate. Detection is independent of
//     the retained window, so it survives every trim: records behind the
//     capture head fail the order check, and the duplicate index is the
//     keys accepted at exactly the head timestamp;
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
// It keeps the batch matcher's state between calls. A sender record
// appends its view and joins its key's buffered core sighting; a core
// record joins its key's newest view; a TB attempt merges into its HARQ
// process, in the table order the batch path sorts to. Advance resumes the
// FIFO matcher at the earliest process position new evidence can change —
// the first process an attempt inserted, moved or changed the time or fate
// of, or, once sender records arrive, the first whose budget a dry FIFO
// left over — from the checkpoint taken on entering it, and touches
// nothing before. A batch so costs O(new evidence), not O(window), every
// buffer is recycled (steady-state ingest allocates nothing), and after
// every Advance the state equals batch correlation of the retained
// records. The emission contract (each packet exactly once, in send
// order, only when resolvable) is what a live consumer such as a
// PHY-aware congestion controller needs.
//
// The feed-order validation doubles as a structural guarantee: because
// sender records are enforced time-ordered and (when Input.Flows is set)
// flow-covered, the views are 1:1 with the sender buffer, so position i
// of the buffer IS view i. Emission and trim exploit that positional
// identity — duplicate (flow, seq, kind) keys, legal for sequence-less
// kinds like NTP cross traffic, can no longer alias each other through
// the key index.
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

	// The retained window. sender is positionally identical to the views
	// in sc.rep.Packets and the drain state in sc.fifoLeft; emitted is the
	// prefix already emitted. core and tbs are arrival-ordered logs whose
	// records trims retire in place (coreLive, tbLive); nCore and nTBs
	// count the retained ones, coreKeys sums them up per key for the join,
	// and arrivals numbers them.
	sender    []packet.Record
	emitted   int
	core      queue[coreRec]
	coreKeys  map[pktKey]coreKey
	tbs       queue[tbAttempt]
	nCore     int
	nTBs      int
	arrivals  uint64
	senderOff time.Duration
	coreOff   time.Duration

	// Feed-validation state: per-stream capture heads, the duplicate
	// index, and the flow-coverage set derived from in.Flows. A duplicate
	// is a key accepted at exactly lastSenderAt: a replay of anything
	// older already fails the order check. The key index finds the ones
	// still retained; headKeys holds those a trim retired, so the check
	// survives every trim. headPeak is the most keys headKeys has held
	// since it was last made.
	lastSenderAt time.Duration
	lastCoreAt   time.Duration
	advanced     time.Duration
	headKeys     map[pktKey]struct{}
	headPeak     int
	coveredFlow  map[uint32]bool

	// Progress counters surfaced by Snapshot.
	emittedTotal int64
	trims        int64

	// Matcher bookkeeping: dirty is the first process position the next
	// walk must revisit; harq lists abandoned processes whose retry may
	// still arrive (the settle gate's candidates); nDead counts processes
	// a trim dropped whose slots await compactProcs.
	dirty int
	harq  []uint64
	nDead int
	sc    scratch
}

// coreRec is one retained core sighting: its key, corrected time and
// arrival number.
type coreRec struct {
	key pktKey
	at  time.Duration
	seq uint64
}

// coreKey sums up a key's retained core sightings: the newest one's
// corrected time, their count, and the arrival number they count from
// (older sightings of the key were retired with it).
type coreKey struct {
	at   time.Duration
	n    int
	from uint64
}

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
		coreKeys:   make(map[pktKey]coreKey),
		sc: scratch{
			rep:     &Report{byKey: make(map[pktKey]int)},
			procIdx: make(map[uint64]int32),
			ckpt:    []checkpoint{},
			dry:     noPos,
		},
	}
	lc.senderOff, lc.coreOff = in.offset(packet.PointSender), in.offset(packet.PointCore)
	if len(in.Flows) > 0 {
		lc.coveredFlow = make(map[uint32]bool, len(in.Flows))
		for _, f := range in.Flows {
			lc.coveredFlow[f] = true
		}
		// Uncovered records are rejected at the door, so the matcher
		// needs no filter of its own.
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
	sc := &lc.sc
	i, ok := sc.rep.byKey[k]
	if _, retired := lc.headKeys[k]; retired || ok && lc.sender[i-sc.shift].LocalTime == r.LocalTime {
		// Sequence-less kinds (NTP cross traffic) legitimately repeat a
		// key at distinct capture times; an identical timestamp means the
		// same record fed twice.
		return fmt.Errorf("%w: sender %d/%d/%s at %v", ErrDuplicate, r.Flow, r.Seq, r.Kind, r.LocalTime)
	}
	lc.lastSenderAt = r.LocalTime
	lc.sender = append(lc.sender, r)

	if ok {
		// The join is last-wins: the key's core sightings move to its
		// newest sender record.
		sc.rep.Packets[i-sc.shift].clearCore()
	}
	sc.rep.byKey[k] = len(sc.rep.Packets) + sc.shift
	sc.rep.Packets = append(sc.rep.Packets, PacketView{})
	v := &sc.rep.Packets[len(sc.rep.Packets)-1]
	v.fromSender(&r, lc.senderOff)
	if g, ok := lc.coreKeys[k]; ok {
		v.joinCore(g.at)
	}
	sc.fifoLeft = append(sc.fifoLeft, int64(r.Size))
	// A dry FIFO left budget over that the new packet can take.
	lc.dirty = min(lc.dirty, sc.dry)
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
	k, at := pktKey{r.Flow, r.Seq, r.Kind}, r.LocalTime-lc.coreOff
	g, ok := lc.coreKeys[k]
	if !ok {
		g.from = lc.arrivals
	}
	g.at, g.n = at, g.n+1
	lc.coreKeys[k] = g
	lc.core.push(coreRec{k, at, lc.arrivals})
	lc.arrivals++
	lc.nCore++
	if i, ok := lc.sc.rep.byKey[k]; ok {
		lc.sc.rep.Packets[i-lc.sc.shift].joinCore(at)
	}
	return nil
}

// OnTB feeds one TB telemetry record (any HARQ attempt). No ordering
// constraint: merged multi-cell telemetry legitimately interleaves in
// time, and the process table keeps its order whatever the arrival order.
func (lc *LiveCorrelator) OnTB(r telemetry.TBRecord) error {
	a := attemptOf(r, lc.arrivals)
	lc.tbs.push(a)
	lc.nTBs++
	lc.arrivals++
	lc.addTB(a)
	return nil
}

// addTB merges one attempt into the TB-process table and re-places the
// process if the attempt created it or changed its time or fate.
func (lc *LiveCorrelator) addTB(a tbAttempt) {
	sc := &lc.sc
	j, ok := sc.procIdx[a.id]
	if !ok {
		sc.procs = append(sc.procs, newProcess(a))
		j = int32(len(sc.procs) - 1)
	} else {
		p := &sc.procs[j]
		was := *p
		p.merge(a)
		if p.initialAt == was.initialAt && p.finalAt == was.finalAt && p.abandoned == was.abandoned {
			return
		}
	}
	lc.placed(int(j))
}

// placed re-sorts the changed process at position j, lowers dirty to the
// first position affected and makes an abandoned process a settle-gate
// candidate.
func (lc *LiveCorrelator) placed(j int) {
	sc := &lc.sc
	to := sc.place(j)
	lc.dirty = min(lc.dirty, j, to)
	if p := &sc.procs[to]; p.abandoned {
		lc.harq = append(lc.harq, p.id)
	}
}

// place moves the process at position j until the table is back in
// (initialAt, seen) order — the batch path's stable sort order —
// re-indexing each process it passes, and returns the new position.
// Checkpoints stay put: the one at the lower of the two positions is
// still the state on entering it, and the walk resumes there.
func (sc *scratch) place(j int) int {
	procs, p := sc.procs, sc.procs[j]
	for ; j > 0 && p.before(&procs[j-1]); j-- {
		sc.shiftProc(j, j-1)
	}
	for ; j+1 < len(procs) && procs[j+1].before(&p); j++ {
		sc.shiftProc(j, j+1)
	}
	procs[j] = p
	sc.procIdx[p.id] = int32(j)
	return j
}

// shiftProc moves the process at position from to position to.
func (sc *scratch) shiftProc(to, from int) {
	sc.procs[to] = sc.procs[from]
	if p := &sc.procs[to]; !p.dead {
		sc.procIdx[p.id] = int32(to)
	}
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
	sc, unsettled := &lc.sc, lc.unsettled(now)

	// Emit, in send order, every not-yet-emitted packet that is either
	// fully resolved (seen at the core with TBs matched) or past the
	// flush horizon. Views are positionally identical to the sender
	// buffer, so index — not the (possibly aliased) key — selects them.
	for lc.emitted < len(lc.sender) {
		v := &sc.rep.Packets[lc.emitted]
		// Resolved means the view is final: observed at the core and — when
		// TB telemetry is in play — fully drained by the FIFO matcher, so
		// no later TB can extend its match (the FIFO head never moves
		// backwards). A causal feed implies drained whenever the core saw
		// the packet; the explicit check protects emission against feeds
		// that are not.
		resolved := v.SeenCore && (lc.nTBs == 0 ||
			(len(v.TBIDs) > 0 && sc.fifoLeft[lc.emitted] == 0))
		if resolved && unsettled < 1<<63-1 {
			for _, id := range v.TBIDs {
				if sc.procs[sc.procIdx[id]].initialAt >= unsettled {
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
	sc, from := &lc.sc, lc.dirty
	if from < len(sc.procs) {
		var c checkpoint
		rewound := from < sc.base+len(sc.ckpt)
		if rewound {
			c = checkpoint{head: sc.shift}
			if from >= sc.base {
				c = sc.ckpt[from-sc.base]
			}
		}
		// The walk appends at most one TBID per process walked plus one
		// per packet, after the rewind restores the head's.
		need := len(sc.procs) - from + len(lc.sender) + c.k
		if cap(sc.tbids)-len(sc.tbids) < need {
			lc.repack(need)
		}
		if rewound {
			lc.rewind(c)
		}
		if from <= sc.dry {
			sc.dry = noPos
		}
		sc.base = min(sc.base, from)
		sc.ckpt = sc.ckpt[:from-sc.base]
		sc.walk(lc.in, from)
	}
	lc.dirty = len(sc.procs)
}

// rewind restores the matcher to checkpoint c and returns every view the
// walk will re-derive to its unmatched state. A checkpoint whose head
// packet was trimmed stands for the first retained packet, untouched:
// every process before it carried only trimmed packets (and went with
// them) or cannot carry a later one.
func (lc *LiveCorrelator) rewind(c checkpoint) {
	sc := &lc.sc
	head := c.head - sc.shift
	if head < 0 {
		head, c = 0, checkpoint{}
	}
	m := cursor{head: head, tbStart: len(sc.tbids)}
	var ids []uint64
	if c.k > 0 {
		ids = sc.rep.Packets[head].TBIDs[:c.k]
		m.first, m.last = sc.procIdx[ids[0]], sc.procIdx[ids[c.k-1]]
	}
	for j := head; j <= sc.m.head && j < len(lc.sender); j++ {
		v := &sc.rep.Packets[j]
		v.TBIDs, v.GrantKind, v.QueueWait, v.BSRWait, v.HARQDelay = nil, 0, 0, 0, 0
		sc.fifoLeft[j] = int64(lc.sender[j].Size)
	}
	if c.k > 0 {
		// Every take records a TBID, so a head without any is untouched —
		// perhaps not even fed when the checkpoint was taken.
		sc.tbids = append(sc.tbids, ids...)
		sc.fifoLeft[head] = c.left
	}
	sc.m = m
}

// repack moves the retained views' TBIDs to the front of the shared
// backing array — or into one twice the size they and need take —
// dropping the IDs of trimmed and re-derived packets. Views hold their
// IDs in packet order, so packing in that order only ever copies down.
func (lc *LiveCorrelator) repack(need int) {
	sc := &lc.sc
	live := 0
	for i := range sc.rep.Packets {
		live += len(sc.rep.Packets[i].TBIDs)
	}
	ids := sc.tbids[:0]
	if 2*(live+need) > cap(ids) {
		ids = make([]uint64, 0, 2*(live+need))
	}
	for i := range sc.rep.Packets {
		if v := &sc.rep.Packets[i]; len(v.TBIDs) > 0 {
			start := len(ids)
			ids = append(ids, v.TBIDs...)
			v.TBIDs = ids[start:len(ids):len(ids)]
		}
	}
	// The head's IDs, if any, are the last packed.
	sc.m.tbStart = len(ids) - (len(sc.tbids) - sc.m.tbStart)
	sc.tbids = ids
}

// unsettled returns the earliest initial transmission among abandoned
// processes whose retransmission may still arrive, dropping the
// candidates that have settled.
func (lc *LiveCorrelator) unsettled(now time.Duration) time.Duration {
	sc := &lc.sc
	settle := lc.in.HARQRTT + lc.in.MatchTolerance
	earliest := time.Duration(1<<63 - 1)
	kept := lc.harq[:0]
	for _, id := range lc.harq {
		j, ok := sc.procIdx[id]
		if !ok {
			continue
		}
		if p := &sc.procs[j]; p.abandoned && now < p.finalAt+settle {
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
// no emitted sender record consumed its key, its corrected time is at or
// after the sender head's corrected send time (a packet sent later
// reaches the core later), and it lies within a second of the flush
// horizon; telemetry survives within that same second. So a core record
// delivered ahead of its sender record (a sender clock running ahead)
// waits for it, and a feed with no sender records at all stays bounded.
//
// Mid-stream, the emitted sender prefix is cut where the matcher's state
// is settled, so the state over the trimmed buffers equals a batch pass
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
// matcher head, spent processes are the trimmed packets' TBIDs, too-old
// processes lead the table, and retired records and processes are
// compacted away once they make up a quarter of their buffer.
func (lc *LiveCorrelator) trim(horizon time.Duration) {
	sc := &lc.sc
	keepFrom := horizon - time.Second
	if lc.Pending() == 0 {
		if len(lc.sender) > 0 {
			lc.trims++
		}
		lc.retire(len(lc.sender))
		sc.m, sc.tbids, sc.ckpt, sc.dry = cursor{}, sc.tbids[:0], sc.ckpt[:0], noPos
		head := lc.lastSenderAt - lc.senderOff
		from, i := max(head, keepFrom), lc.core.off
		for ; i < len(lc.core.buf); i++ {
			if c := &lc.core.buf[i]; lc.coreLive(c) {
				if c.at >= from {
					break
				}
				lc.nCore--
				if g := lc.coreKeys[c.key]; g.n > 1 {
					g.n--
					lc.coreKeys[c.key] = g
				} else {
					delete(lc.coreKeys, c.key)
				}
			}
		}
		lc.core.off = i
		for i = lc.tbs.off; i < len(lc.tbs.buf); i++ {
			if a := &lc.tbs.buf[i]; lc.tbLive(a) {
				if a.at >= keepFrom {
					break
				}
				lc.cutTB(i)
			}
		}
		lc.tbs.off = i
		// No packet sent from now on precedes the sender head, so a kept
		// process whose transmission causality bars the head from takes
		// nothing: the next walk starts past them.
		head -= lc.in.SlotDuration + lc.in.MatchTolerance
		sc.base = sort.Search(len(sc.procs), func(j int) bool { return sc.procs[j].initialAt >= head })
		lc.dirty = sc.base
	} else if lc.nTBs > 0 && lc.emitted > 0 {
		// Without TB telemetry there is no matcher state to settle; the
		// full-drain reset above bounds that regime.
		cut := min(sc.m.head, lc.emitted)
		for cut < lc.emitted && sc.fifoLeft[cut] == 0 {
			cut++
		}
		pkts := sc.rep.Packets
		for cut > 0 && sharesTB(pkts[cut-1].TBIDs, pkts[cut].TBIDs) {
			cut--
		}
		if cut == 0 {
			return
		}
		lc.trims++
		for i := range pkts[:cut] {
			for _, id := range pkts[i].TBIDs {
				lc.drop(id)
			}
		}
		// Settled old TBs: initial attempt too old to satisfy causality
		// against the first kept (hence any later) packet, and no attempt
		// recent enough for the HARQ process to still be running. No
		// attempt precedes the initial one, so the scan ends at whichever
		// limit comes first.
		limit := min(pkts[cut].SentAt-lc.in.SlotDuration-lc.in.MatchTolerance, keepFrom)
		for j := 0; j < len(sc.procs) && sc.procs[j].initialAt < limit; j++ {
			if p := &sc.procs[j]; !p.dead && p.finalAt < keepFrom {
				lc.drop(p.id)
			}
		}
		lc.retire(cut)
	}
	if 4*lc.nDead > len(sc.procs) {
		lc.compactProcs()
	}
	if 4*lc.nCore < 3*len(lc.core.items()) {
		lc.core.keep(lc.coreLive)
	}
	if 4*lc.nTBs < 3*len(lc.tbs.items()) {
		lc.tbs.keep(lc.tbLive)
	}
}

// retire removes the first cut packets from the window, and their keys'
// core sightings with them. Positions shift down by cut; the key index
// stores positions plus sc.shift, so it needs no rewrite.
func (lc *LiveCorrelator) retire(cut int) {
	sc := &lc.sc
	for i, r := range lc.sender[:cut] {
		k := pktKey{r.Flow, r.Seq, r.Kind}
		if g, ok := lc.coreKeys[k]; ok {
			lc.nCore -= g.n
			delete(lc.coreKeys, k)
		}
		if h, ok := sc.rep.byKey[k]; ok && h == i+sc.shift {
			delete(sc.rep.byKey, k)
			if r.LocalTime == lc.lastSenderAt {
				lc.headKeys[k] = struct{}{}
			}
		} else if ok && h-sc.shift >= cut {
			sc.rep.Packets[h-sc.shift].clearCore()
		}
	}
	n := copy(lc.sender, lc.sender[cut:])
	lc.sender = lc.sender[:n]
	sc.rep.Packets = sc.rep.Packets[:copy(sc.rep.Packets, sc.rep.Packets[cut:])]
	sc.fifoLeft = sc.fifoLeft[:copy(sc.fifoLeft, sc.fifoLeft[cut:])]
	lc.emitted -= cut
	sc.shift += cut
	// Only an unmatched zero-size head can fall in the prefix.
	sc.m.head = max(sc.m.head-cut, 0)
}

// cutTB removes the logged attempt at index i, which the full drain cuts
// by time, not with its process. The process goes with its last attempt;
// otherwise it is re-derived from those that remain — they follow in the
// log within one HARQ lifetime — as the cut one may have set its
// initialAt, used, grant or fate.
func (lc *LiveCorrelator) cutTB(i int) {
	sc := &lc.sc
	id := lc.tbs.buf[i].id
	j := int(sc.procIdx[id])
	left := sc.procs[j].nrec - 1
	if left == 0 {
		lc.drop(id)
		return
	}
	lc.nTBs--
	var p tbProcess
	for k := i + 1; p.nrec < left; k++ {
		if a := lc.tbs.buf[k]; a.id == id {
			if p.nrec == 0 {
				p = newProcess(a)
			} else {
				p.merge(a)
			}
		}
	}
	sc.procs[j] = p
	lc.placed(j)
}

// drop removes a TB process from the table; its slot stays, skipped by
// the matcher, until compactProcs.
func (lc *LiveCorrelator) drop(id uint64) {
	j, ok := lc.sc.procIdx[id]
	if !ok {
		return
	}
	p := &lc.sc.procs[j]
	p.dead, p.abandoned = true, true
	delete(lc.sc.procIdx, id)
	lc.nTBs -= int(p.nrec)
	lc.nDead++
}

// compactProcs closes the slots of dropped processes, moving checkpoints
// and the matcher's process positions with their processes.
func (lc *LiveCorrelator) compactProcs() {
	sc := &lc.sc
	kept, dirty, base, walked, dry := sc.procs[:0], 0, 0, 0, noPos
	for i, p := range sc.procs {
		if i == sc.dry {
			dry = len(kept)
		}
		if p.dead {
			continue
		}
		if i < lc.dirty {
			dirty++
		}
		if i < sc.base {
			base++
		} else if i < sc.base+len(sc.ckpt) {
			sc.ckpt[walked] = sc.ckpt[i-sc.base]
			walked++
		}
		if i != len(kept) {
			sc.procIdx[p.id] = int32(len(kept))
		}
		kept = append(kept, p)
	}
	sc.procs, sc.base, sc.ckpt, sc.dry = kept, base, sc.ckpt[:walked], dry
	lc.dirty, lc.nDead = dirty, 0
	if sc.m.tbStart < len(sc.tbids) {
		sc.m.first, sc.m.last = sc.procIdx[sc.tbids[sc.m.tbStart]], sc.procIdx[sc.tbids[len(sc.tbids)-1]]
	}
}

// coreLive reports whether a logged core sighting is still retained.
func (lc *LiveCorrelator) coreLive(c *coreRec) bool {
	g, ok := lc.coreKeys[c.key]
	return ok && c.seq >= g.from
}

// tbLive reports whether a logged attempt belongs to a process in the
// table: dropping a process retires its attempts, and a later attempt of
// the same TB starts a new one.
func (lc *LiveCorrelator) tbLive(a *tbAttempt) bool {
	j, ok := lc.sc.procIdx[a.id]
	return ok && a.seq >= lc.sc.procs[j].seen
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
	if head := lc.lastSenderAt - lc.senderOff; head > now {
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
