package ran

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/telemetry"
	"athena/internal/units"
)

// Scheduler metrics, aggregated across every cell in the process. Grant
// counters are indexed by telemetry.GrantKind so the hot path never
// formats a label. None of these touch RNG streams or event ordering.
var (
	metGrantsByKind = [...]*obs.Counter{
		telemetry.GrantProactive: obs.NewCounter("ran.grants.proactive"),
		telemetry.GrantRequested: obs.NewCounter("ran.grants.requested"),
		telemetry.GrantAppAware:  obs.NewCounter("ran.grants.app_aware"),
		telemetry.GrantOracle:    obs.NewCounter("ran.grants.oracle"),
	}
	metHARQRetx      = obs.NewCounter("ran.harq_retx")
	metTBOvergranted = obs.NewCounter("ran.tb_overgranted")
	metTBWastedBytes = obs.NewCounter("ran.tb_wasted_bytes")
	metDrops         = obs.NewCounter("ran.drops")
)

// RAN is the cell: a gNB serving one or more UEs under a shared uplink
// capacity, with the TDD slot structure and grant machinery of §3.
type RAN struct {
	Cfg Config

	sim  *sim.Simulator
	rng  *rand.Rand
	ues  []*UE
	core packet.Handler // where successfully decoded uplink packets go

	Telemetry *telemetry.Collector

	// Per-UE grant/BSR/predictor state lives on the UE itself, so each
	// attachment's scheduling pipeline is self-contained. rests is the
	// slot's scratch list of split remainders and predictive retries, in
	// allocation order; onULSlot hands each to its UE's queue at the end
	// of the slot.
	rests   []grant
	rrStart int
	// order is the QoE-aware cells' per-slot allocation order, reused
	// across slots (see qoeOrder).
	order []*UE

	// faded reports whether the cell is currently in a channel fade.
	faded   bool
	fadeRNG *rand.Rand

	// dlBusyTil serializes downlink transmissions.
	dlBusyTil time.Duration

	nextTBID uint64

	// grantedBytes accumulates every TB allocation (TB size, not payload).
	grantedBytes units.ByteCount

	// Drops counts packets abandoned after HARQ exhaustion.
	Drops int
}

// grant is an uplink allocation executable at a specific UL slot. Grants
// are held by value: a cell files one proactive grant per UE per UL slot.
type grant struct {
	ue  *UE
	tbs units.ByteCount
	// due is when a BSR-requested grant becomes executable. Every other
	// grant is executable at the slot whose queue it sits in.
	due  time.Duration
	kind telemetry.GrantKind
	// retries counts re-issues of a predicted grant that fired before the
	// traffic it anticipated arrived.
	retries int
}

// carries reports whether an unserved grant of this kind waits for the
// next slot. Speculative allocations (proactive, oracle) lapse instead.
func carries(k telemetry.GrantKind) bool {
	return k == telemetry.GrantRequested || k == telemetry.GrantAppAware
}

// grantRing is a double-ended grant queue over a power-of-two ring: a
// UE's backlog is served from the front, and a slot touches only the
// grants it serves, files or carries past, never the whole queue.
type grantRing struct {
	buf  []grant
	head int
	n    int
}

func (q *grantRing) at(i int) *grant { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *grantRing) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]grant, max(8, 2*len(q.buf)))
	for i := range q.n {
		buf[i] = *q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *grantRing) pushBack(g grant) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = g
	q.n++
}

func (q *grantRing) pushFront(g grant) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = g
	q.n++
}

func (q *grantRing) popFront() grant {
	g := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return g
}

func (q *grantRing) popBack() {
	q.n--
}

func (q *grantRing) reset() {
	q.head, q.n = 0, 0
}

// New creates a RAN on s delivering uplink packets to core. The UL slot
// loop starts immediately.
func New(s *sim.Simulator, cfg Config, core packet.Handler) *RAN {
	if core == nil {
		core = packet.Discard
	}
	r := &RAN{
		Cfg:       cfg,
		sim:       s,
		rng:       s.NewStream(),
		core:      core,
		Telemetry: &telemetry.Collector{},
	}
	// TDD: the UL slot is the last slot of each period. FDD: the uplink
	// carrier is continuously available, one opportunity per slot.
	firstUL := cfg.SlotDuration * time.Duration(cfg.SlotsPerPeriod-1)
	if cfg.Duplex == DuplexFDD {
		firstUL = 0
	}
	s.Every(firstUL, cfg.ULPeriod(), r.onULSlot)
	if cfg.FadeMeanBad > 0 && cfg.FadeMeanGood > 0 {
		r.fadeRNG = s.NewStream()
		r.scheduleFade()
	}
	return r
}

// scheduleFade flips the channel state after an exponentially distributed
// residence time in the current state.
func (r *RAN) scheduleFade() {
	mean := r.Cfg.FadeMeanGood
	if r.faded {
		mean = r.Cfg.FadeMeanBad
	}
	d := time.Duration(r.fadeRNG.ExpFloat64() * float64(mean))
	r.sim.After(d, func() {
		r.faded = !r.faded
		r.scheduleFade()
	})
}

// effectiveBLER is the channel's current block error rate.
func (r *RAN) effectiveBLER() float64 {
	if r.faded {
		return r.Cfg.FadeBLER
	}
	return r.Cfg.BLER
}

// effectiveCapacity is the current per-slot byte budget (fades reduce the
// usable MCS).
func (r *RAN) effectiveCapacity() units.ByteCount {
	c := r.Cfg.SlotCapacity()
	if r.faded && r.Cfg.FadeCapacityFactor > 0 {
		c = units.ByteCount(float64(c) * r.Cfg.FadeCapacityFactor)
	}
	return c
}

// GrantedBytes reports the cumulative bytes of uplink TB allocations this
// cell has issued (allocation size, not payload carried). Utilization
// over a window is the delta divided by BytesOver(CellULRate, window).
func (r *RAN) GrantedBytes() units.ByteCount { return r.grantedBytes }

// AttachUE registers a mobile with the given scheduling strategy and
// returns it.
func (r *RAN) AttachUE(id uint32, sched SchedulerKind) *UE {
	u := &UE{ID: id, Sched: sched, ran: r, Downlink: packet.Discard}
	r.ues = append(r.ues, u)
	return u
}

// Detach removes u from the cell — the source side of a handover. It
// clears every piece of cell-resident scheduler state for the UE:
// pending and current-slot grants are discarded, the BSR accounting is
// zeroed, and the HARQ processes are reset — in-flight retransmissions
// are cancelled and the bytes they carried return to the uplink buffer
// in original FIFO order (the target cell retransmits them from
// scratch; X2-style forwarding of decoded partial TBs is not modeled).
// The learned app-aware/predictive models stay behind too: the target
// gNB must re-learn the UE's cadence. The UE keeps pointing at this
// cell (for clock/config access on late packet arrivals) until
// AttachExisting rebinds it; in between it receives no grants, which is
// exactly the handover grant gap.
func (r *RAN) Detach(u *UE) {
	for i, x := range r.ues {
		if x == u {
			r.ues = append(r.ues[:i], r.ues[i+1:]...)
			// Keep the round-robin pointer on the UE it was pointing at
			// so the departure does not skip anyone's turn.
			if r.rrStart > i {
				r.rrStart--
			}
			break
		}
	}
	if n := len(r.ues); n > 0 {
		r.rrStart %= n
	} else {
		r.rrStart = 0
	}
	u.grants.reset()
	u.bsrGrants.reset()
	u.outstanding = 0

	// HARQ reset. Only TBs awaiting a retransmission are in flight (the
	// initial attempt is synchronous and successes resolve immediately),
	// so cancelling u.retx accounts for every undelivered segment
	// exactly once: each seg's bytes go back to its entry, and entries
	// that had left the buffer as fully segmented re-enter it.
	reinserted := false
	for _, tb := range u.retx {
		tb.retry.Stop()
		for _, s := range tb.segs {
			e := s.entry
			if e.abandoned {
				continue
			}
			e.remaining += s.bytes
			u.bufBytes += s.bytes
			e.pendingTBs--
			if e.fullySegmented {
				e.fullySegmented = false
				u.buf = append(u.buf, e)
				reinserted = true
			}
		}
	}
	u.retx = u.retx[:0]
	if reinserted {
		sort.Slice(u.buf, func(i, j int) bool { return u.buf[i].seq < u.buf[j].seq })
	}
	u.app = nil
	u.pred = nil
}

// AttachExisting adopts an already-constructed UE — the target side of a
// handover. The UE keeps its buffer (the buffered-data transfer has
// completed by the time the scenario layer calls this) and its identity;
// scheduling state starts fresh.
func (r *RAN) AttachExisting(u *UE) {
	u.ran = r
	r.ues = append(r.ues, u)
}

// SendDownlink delivers p to the UE's host over the downlink. The paper
// finds the 5G downlink "provides low and stable delay" — structurally,
// because the gNB schedules its own transmissions: there is no BSR grant
// cycle, only slot alignment, serialization at the (ample) downlink
// share, and the occasional HARQ retransmission.
func (r *RAN) SendDownlink(u *UE, p *packet.Packet) {
	now := r.sim.Now()
	// Serialization at the DL share: in TDD, SlotsPerPeriod-1 of every
	// SlotsPerPeriod slots carry downlink.
	dlRate := r.Cfg.CellULRate * units.BitRate(r.Cfg.SlotsPerPeriod-1)
	if r.Cfg.Duplex == DuplexFDD || dlRate <= 0 {
		dlRate = r.Cfg.CellULRate
	}
	start := now
	if r.dlBusyTil > start {
		start = r.dlBusyTil
	}
	done := start + units.TransmitTime(p.Size, dlRate)
	r.dlBusyTil = done
	// Sub-slot alignment: at most one UL slot interrupts a DL run.
	align := time.Duration(r.rng.Int63n(int64(r.Cfg.SlotDuration) + 1))
	delay := r.Cfg.DownlinkDelay + align
	// Downlink HARQ: same channel, same 10 ms turnaround.
	for round := 0; round < r.Cfg.MaxHARQ && r.rng.Float64() < r.effectiveBLER(); round++ {
		delay += r.Cfg.HARQRTT
	}
	r.sim.At(done, func() {
		r.sim.After(delay, func() { u.Downlink.Handle(p) })
	})
}

// onULSlot runs the gNB's per-uplink-slot machinery: execute due grants,
// build TBs, start HARQ, then collect BSRs for future grants.
func (r *RAN) onULSlot() {
	now := r.sim.Now()
	nextSlot := now + r.Cfg.ULPeriod()
	capacity := r.effectiveCapacity()

	// 1. Queue this slot's executable grants on each UE, in service
	//    order: BSR grants filed two or more slots ago that are now due
	//    (pushed in front of what the queue carried over from the last
	//    slot: its split rests and retries, its unserved requested and
	//    app-aware grants, and a BSR grant filed last slot that is due
	//    already), then this slot's own grants — app-aware/oracle, or the
	//    speculative proactive grant, which goes last because under load
	//    the gNB cannot afford speculative allocations; that is why the
	//    paper only sees proactive TBs helping in a lightly-used cell.
	for _, u := range r.ues {
		due := 0
		for due < u.bsrGrants.n && u.bsrGrants.at(due).due <= now {
			due++
		}
		for i := due - 1; i >= 0; i-- {
			u.grants.pushFront(*u.bsrGrants.at(i))
		}
		for ; due > 0; due-- {
			u.bsrGrants.popFront()
		}
		switch u.Sched {
		case SchedOracle:
			if u.bufBytes > 0 {
				u.grants.pushBack(grant{ue: u, tbs: u.bufBytes, kind: telemetry.GrantOracle})
			}
		case SchedAppAware:
			r.appAwareGrants(u, now)
		case SchedPredictive:
			r.predictiveGrants(u, now)
		case SchedCombined, SchedProactiveOnly:
			u.grants.pushBack(grant{ue: u, tbs: r.Cfg.ProactiveTBS, kind: telemetry.GrantProactive})
		case SchedQoEAware:
			// StreamGuard-style: speculative proactive grants go to the
			// latency-sensitive families only. Elastic bulk waits for its
			// BSR — under load the freed slot budget is exactly what keeps
			// the interactive UEs' grants timely.
			if u.Hint != HintThroughput {
				u.grants.pushBack(grant{ue: u, tbs: r.Cfg.ProactiveTBS, kind: telemetry.GrantProactive})
			}
		}
	}

	// 2. Allocate the slot's byte budget round-robin across UEs, one
	//    grant per UE per round. The rotation pointer persists across
	//    slots so backlogged UEs share the cell fairly instead of a
	//    global FIFO starving latecomers.
	remaining := capacity
	n := len(r.ues)
	order := r.qoeOrder()
	for remaining > 0 {
		progress := false
		for i := 0; i < n && remaining > 0; i++ {
			u := r.ues[(r.rrStart+i)%n]
			if order != nil {
				u = order[i]
			}
			if u.grants.n == 0 {
				continue
			}
			g := u.grants.popFront()
			progress = true
			tbs := g.tbs
			if tbs > remaining {
				// Split: transmit what fits, defer the rest.
				rest := tbs - remaining
				tbs = remaining
				if carries(g.kind) {
					r.rests = append(r.rests, grant{ue: u, tbs: rest, kind: g.kind})
				}
			}
			remaining -= tbs
			if g.kind == telemetry.GrantRequested {
				u.outstanding -= tbs
				if u.outstanding < 0 {
					u.outstanding = 0
				}
			}
			used := r.transmitTB(u, tbs, g.kind, now)
			// QoE-aware cells reclaim the unused tail of speculative
			// grants: strict tier priority would otherwise let idle
			// proactive allocations of the latency tiers permanently
			// starve the elastic (throughput-hinted) tier even on an
			// uncongested cell. Legacy rotation keeps the historical
			// charge-by-grant accounting byte for byte.
			if order != nil && g.kind == telemetry.GrantProactive && used < tbs {
				remaining += tbs - used
			}
			// A predicted grant that fired just before its burst arrived
			// is retried next slot (bounded), so a slightly-early
			// prediction costs one slot, not a whole period. "Mostly
			// unused" (not strictly empty) covers the case where a stray
			// audio packet absorbed a few bytes of an early frame grant.
			if used*2 < tbs && g.kind == telemetry.GrantAppAware &&
				u.Sched == SchedPredictive && g.retries < 4 {
				r.rests = append(r.rests, grant{
					ue: u, tbs: g.tbs - used, kind: g.kind, retries: g.retries + 1,
				})
			}
		}
		if !progress {
			break
		}
	}
	// Unserved grants: requested/app-aware ones stay queued, in order, for
	// the next slot; proactive and oracle allocations lapse. Only this
	// slot's own grants can lapse, and they sit at the back of the queue.
	// The slot's split rests and retries go in front of what stays, each
	// UE's in the order it filed them.
	for _, u := range r.ues {
		for u.grants.n > 0 && !carries(u.grants.at(u.grants.n-1).kind) {
			u.grants.popBack()
		}
	}
	for i := len(r.rests) - 1; i >= 0; i-- {
		r.rests[i].ue.grants.pushFront(r.rests[i])
	}
	r.rests = r.rests[:0]
	if n > 0 {
		r.rrStart = (r.rrStart + 1) % n
	}

	// 3. BSR collection: each UE with unaccounted backlog requests a
	//    grant arriving SchedDelay later.
	for _, u := range r.ues {
		if u.Sched == SchedProactiveOnly || u.Sched == SchedOracle {
			continue
		}
		want := u.bufBytes - u.outstanding
		if want <= 0 {
			continue
		}
		if u.Sched == SchedPredictive {
			// A fresh-backlog BSR is the predictor's learning signal: it
			// fires exactly when no pre-scheduled grant absorbed the
			// traffic.
			if u.pred != nil {
				u.pred.observeDemand(want, now)
			}
		}
		if want > capacity {
			want = capacity // a grant cannot exceed one slot
		}
		u.outstanding += want
		g := grant{ue: u, tbs: want, due: now + r.Cfg.SchedDelay, kind: telemetry.GrantRequested}
		// A grant due by the next slot is served after what that slot
		// carries over; a later one waits in the UE's BSR FIFO, where a
		// fixed SchedDelay keeps due times in filing order.
		if g.due <= nextSlot {
			u.grants.pushBack(g)
		} else {
			u.bsrGrants.pushBack(g)
		}
	}
}

// qoeOrder returns the slot's allocation order when any attached UE runs
// the QoE-aware scheduler: the round-robin rotation, stably re-sorted
// into app-hint priority tiers (latency-sensitive families first,
// elastic bulk last), so equal-priority UEs still share fairly while a
// loaded cell spends its budget on the UEs whose QoE actually depends on
// timeliness. Cells without a QoE-aware UE return nil and keep the plain
// rotation — the legacy event stream stays untouched byte for byte. The
// order is rebuilt in place in r.order, valid until the next slot.
func (r *RAN) qoeOrder() []*UE {
	qoe := false
	for _, u := range r.ues {
		if u.Sched == SchedQoEAware {
			qoe = true
			break
		}
	}
	if !qoe {
		return nil
	}
	n := len(r.ues)
	order := r.order[:0]
	for i := range n {
		order = append(order, r.ues[(r.rrStart+i)%n])
	}
	slices.SortStableFunc(order, func(a, b *UE) int {
		return a.Hint.tier() - b.Hint.tier()
	})
	r.order = order
	return order
}

// transmitTB builds a TB of size tbs from the UE buffer, runs its HARQ
// process, and reports the payload bytes it carried.
func (r *RAN) transmitTB(u *UE, tbs units.ByteCount, kind telemetry.GrantKind, slotAt time.Duration) units.ByteCount {
	viaBSR := kind == telemetry.GrantRequested
	segs := u.fill(tbs, viaBSR, slotAt)
	var used units.ByteCount
	ids := make([]uint64, 0, len(segs))
	for _, s := range segs {
		used += s.bytes
		ids = append(ids, s.entry.pkt.ID)
	}
	r.nextTBID++
	// The cell ID occupies the top 16 bits so telemetry merged across
	// cells keeps every TBID globally unique (cell 0 numbering is the
	// historical single-cell sequence, unchanged).
	tb := &transportBlock{
		id: r.nextTBID | uint64(r.Cfg.CellID)<<48, ue: u, tbs: tbs, used: used, kind: kind,
		segs: segs, ids: ids,
	}
	r.grantedBytes += tbs
	if int(kind) < len(metGrantsByKind) {
		metGrantsByKind[kind].Inc()
	}
	if used < tbs {
		metTBOvergranted.Inc()
		metTBWastedBytes.Add(int64(tbs - used))
	}
	r.attempt(tb, 0, slotAt)
	return used
}

// transportBlock is one TB working through HARQ.
type transportBlock struct {
	id   uint64
	ue   *UE
	tbs  units.ByteCount
	used units.ByteCount
	kind telemetry.GrantKind
	segs []segment
	ids  []uint64
	// retry is the pending HARQ retransmission timer, valid while the TB
	// sits in its UE's retx set; Detach stops it to reset HARQ state.
	retry sim.Timer
}

// attempt transmits the TB (round = HARQ round) and schedules either
// delivery or a retransmission.
func (r *RAN) attempt(tb *transportBlock, round int, at time.Duration) {
	if round > 0 {
		metHARQRetx.Inc()
	}
	failed := r.rng.Float64() < r.effectiveBLER()
	canRetry := round < r.Cfg.MaxHARQ
	r.Telemetry.Add(telemetry.TBRecord{
		TBID: tb.id, UE: tb.ue.ID, At: at, TBS: tb.tbs, UsedBytes: tb.used,
		Grant: tb.kind, HARQRound: round, Failed: failed,
		PacketIDs: tb.ids,
	})
	if failed && canRetry {
		// The base station mandates retransmission even of empty TBs
		// (§3.2), so the retry is scheduled unconditionally. The TB is
		// tracked in its UE's retx set until the retry fires, so a
		// handover in the gap can cancel it.
		next := at + r.Cfg.HARQRTT
		tb.retry = r.sim.At(next, func() {
			tb.ue.untrackRetx(tb)
			r.attempt(tb, round+1, next)
		})
		tb.ue.trackRetx(tb)
		return
	}
	if failed {
		// HARQ exhausted: packets carried (even partially) are lost.
		for _, s := range tb.segs {
			if !s.entry.abandoned {
				s.entry.abandoned = true
				s.entry.pkt.GroundTruth.Dropped = true
				r.Drops++
				tb.ue.Drops++
				metDrops.Inc()
			}
		}
		return
	}
	// Success: bytes decoded at the end of this slot.
	doneAt := at + r.Cfg.SlotDuration
	for _, s := range tb.segs {
		e := s.entry
		e.pendingTBs--
		if doneAt > e.latestSuccess {
			e.latestSuccess = doneAt
		}
		if tb.id != 0 {
			e.pkt.GroundTruth.TBIDs = append(e.pkt.GroundTruth.TBIDs, tb.id)
		}
		if e.fullySegmented && e.pendingTBs == 0 && !e.abandoned {
			r.deliver(e)
		}
	}
}

// deliver hands a fully received packet to the core, recording the
// ground-truth delay decomposition the correlator must later recover.
func (r *RAN) deliver(e *bufEntry) {
	gt := &e.pkt.GroundTruth
	gt.UEQueueWait = e.lastFirstTx - e.enqueuedAt
	if e.lastViaBSR {
		gt.BSRWait = gt.UEQueueWait
	}
	gt.HARQDelay = e.latestSuccess - (e.lastFirstTx + r.Cfg.SlotDuration)
	deliverAt := e.latestSuccess + r.Cfg.CoreDelay
	pkt := e.pkt
	r.sim.At(deliverAt, func() { r.core.Handle(pkt) })
}

// appAwareState tracks the gNB's learned media cadence for one UE.
type appAwareState struct {
	anchor        time.Duration // predicted next frame generation
	interval      time.Duration
	frameBytes    units.ByteCount
	audioAnchor   time.Duration
	audioInterval time.Duration
	audioBytes    units.ByteCount
	primed        bool
}

// appAwareGrants issues grants timed to the UE's announced media cadence
// (§5.2: "the base station can issue grants exactly at the right times
// when a sample or frame is generated"), queueing them on u. A small BSR
// fallback (handled by the normal BSR path) cleans up estimation error.
func (r *RAN) appAwareGrants(u *UE, now time.Duration) {
	st := u.app
	if st == nil {
		st = &appAwareState{}
		u.app = st
	}
	if u.hasMeta {
		m := u.latestMeta
		if m.FrameRateFPS > 0 {
			st.interval = time.Second / time.Duration(m.FrameRateFPS)
			// 15% headroom over the announced frame size estimate.
			st.frameBytes = units.ByteCount(float64(m.FrameSizeBytes) * 1.15)
		}
		if m.AudioRateHz > 0 {
			// AudioRateHz encodes packets/s × 100.
			st.audioInterval = time.Duration(float64(time.Second) / (float64(m.AudioRateHz) / 100))
			st.audioBytes = 220
		}
		if !st.primed {
			st.anchor = u.lastMetaFrame + st.interval
			st.audioAnchor = now
			st.primed = true
		}
		u.hasMeta = false // consume; refreshed by the next meta packet
		// The frame that carried the metadata is itself in the buffer:
		// grant for it immediately.
		u.grants.pushBack(grant{ue: u, tbs: st.frameBytes, kind: telemetry.GrantAppAware})
		return
	}
	if !st.primed {
		return
	}
	// Issue the frame grant on the first UL slot at/after the predicted
	// generation instant; anchors in the future wait for a later slot.
	for st.interval > 0 && st.anchor <= now {
		u.grants.pushBack(grant{ue: u, tbs: st.frameBytes, kind: telemetry.GrantAppAware})
		st.anchor += st.interval
	}
	for st.audioInterval > 0 && st.audioAnchor <= now {
		u.grants.pushBack(grant{ue: u, tbs: st.audioBytes, kind: telemetry.GrantAppAware})
		st.audioAnchor += st.audioInterval
	}
}

// String describes the cell.
func (r *RAN) String() string {
	return fmt.Sprintf("ran(ues=%d ulPeriod=%v slotCap=%v bler=%.2f)",
		len(r.ues), r.Cfg.ULPeriod(), r.Cfg.SlotCapacity(), r.Cfg.BLER)
}
