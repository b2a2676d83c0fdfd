package ran

import (
	"time"

	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/units"
)

// SchedulerKind selects the uplink grant strategy applied to a UE.
type SchedulerKind uint8

// Scheduler strategies. Combined (proactive + BSR-requested) is the
// paper's observed default; AppAware and Oracle implement §5.2.
const (
	SchedCombined SchedulerKind = iota
	SchedBSROnly
	SchedProactiveOnly
	SchedAppAware
	SchedOracle
	// SchedPredictive is §5.2's ML alternative: the gNB learns the UE's
	// burst cadence from observed usage and pre-schedules grants, with
	// BSR as the learning signal and fallback.
	SchedPredictive
	// SchedQoEAware is the StreamGuard-style cross-application scheduler:
	// each UE announces its application family (UE.Hint) at attachment,
	// and the cell serves grant allocations in hint-priority order —
	// latency-critical families first, elastic bulk last — while
	// reserving speculative proactive grants for the families that need
	// them. Cells with no QoE-aware UE attached behave bit-identically
	// to SchedCombined arbitration.
	SchedQoEAware
)

// String names the strategy.
func (k SchedulerKind) String() string {
	switch k {
	case SchedCombined:
		return "proactive+bsr"
	case SchedBSROnly:
		return "bsr-only"
	case SchedProactiveOnly:
		return "proactive-only"
	case SchedAppAware:
		return "app-aware"
	case SchedOracle:
		return "oracle"
	case SchedPredictive:
		return "predictive"
	case SchedQoEAware:
		return "qoe-aware"
	}
	return "?"
}

// AppHintClass is the application-family hint a UE announces at
// attachment (StreamGuard-style): the QoE-aware scheduler maps it to a
// grant-priority tier. It is advisory — every other scheduler ignores it.
type AppHintClass uint8

// Application-family hints, in no particular priority order (the
// scheduler's tier mapping decides precedence).
const (
	HintNone           AppHintClass = iota
	HintLatency                     // interactive input streams (cloud gaming)
	HintConversational              // real-time media (VCA, audio-only calls)
	HintThroughput                  // elastic bulk transfer
)

// String names the hint.
func (h AppHintClass) String() string {
	switch h {
	case HintLatency:
		return "latency"
	case HintConversational:
		return "conversational"
	case HintThroughput:
		return "throughput"
	}
	return "none"
}

// tier maps the hint to the QoE-aware service order: lower tiers are
// served first within each allocation round. Unhinted UEs sit between
// conversational media and elastic bulk.
func (h AppHintClass) tier() int {
	switch h {
	case HintLatency:
		return 0
	case HintConversational:
		return 1
	case HintThroughput:
		return 3
	}
	return 2
}

// bufEntry is one IP packet queued in the UE's uplink buffer, possibly
// partially transmitted (RLC segmentation).
type bufEntry struct {
	pkt        *packet.Packet
	remaining  units.ByteCount
	enqueuedAt time.Duration
	// seq is the per-UE enqueue sequence number. A handover's HARQ reset
	// returns partially transmitted entries to the buffer; sorting by seq
	// restores the original FIFO order exactly.
	seq uint64

	// transmission bookkeeping
	pendingTBs     int           // TB transmissions in flight carrying segments
	lastFirstTx    time.Duration // slot of the *initial* attempt of the latest segment
	latestSuccess  time.Duration // max success time across segment TBs
	lastViaBSR     bool          // last segment rode a BSR-requested TB
	fullySegmented bool          // all bytes have been placed into TBs
	abandoned      bool          // a carrying TB exhausted HARQ
}

// UE is one mobile attached to the cell. Its Handle method accepts uplink
// IP packets from the host stack; delivered packets emerge at the RAN's
// core handler.
type UE struct {
	ID    uint32
	Sched SchedulerKind

	// Hint is the application-family announcement the QoE-aware
	// scheduler prioritizes by. Set it right after attachment; a
	// handover carries it to the target cell (it lives on the UE, not
	// the cell).
	Hint AppHintClass

	ran *RAN

	buf      []*bufEntry
	bufBytes units.ByteCount

	// Per-UE scheduler state: outstanding tracks requested-but-not-yet-
	// executed bytes so repeated BSRs are not double-counted; grants holds
	// the grants executable at the next UL slot, in service order, and
	// bsrGrants the filed BSR grants not yet due, in filing order;
	// app/pred hold the app-aware and predictive schedulers' learned
	// models for this attachment.
	outstanding units.ByteCount
	grants      grantRing
	bsrGrants   grantRing
	app         *appAwareState
	pred        *predictor

	// enqSeq numbers buffer entries in arrival order (see bufEntry.seq).
	enqSeq uint64
	// retx tracks TBs with a HARQ retransmission pending, so a handover
	// can cancel them and return their bytes to the buffer. A TB joins
	// when a retry is scheduled and leaves when that retry fires; the
	// initial attempt is synchronous, so an empty retx set means no TB
	// for this UE is in flight at all.
	retx []*transportBlock

	// Drops counts this UE's packets abandoned after HARQ exhaustion
	// (the cell-wide total is RAN.Drops). metDrops mirrors it into the
	// obs registry as ran.ue.<id>.drops.
	Drops    int
	metDrops *obs.Counter

	// Downlink delivery handler (packets arriving from the network to
	// this UE's host).
	Downlink packet.Handler

	// latestMeta is the §5.2 media metadata most recently seen in a
	// queued packet; the UE reports it alongside its BSR when the cell
	// runs the app-aware scheduler.
	latestMeta    rtp.MediaMeta
	hasMeta       bool
	lastMetaFrame time.Duration // enqueue time of the meta-carrying packet
}

// Handle enqueues an uplink packet into the UE transmission buffer.
func (u *UE) Handle(p *packet.Packet) {
	now := u.ran.sim.Now()
	if th := u.ran.Cfg.ECNThreshold; th > 0 && u.bufBytes > th && p.ECN != packet.ECNNotECT {
		p.ECN = packet.ECNCE
	}
	e := &bufEntry{pkt: p, remaining: p.Size, enqueuedAt: now, seq: u.enqSeq}
	u.enqSeq++
	u.buf = append(u.buf, e)
	u.bufBytes += p.Size
	if rp, ok := p.Payload.(*rtp.Packet); ok && rp.HasMeta {
		u.latestMeta = rp.Meta
		u.hasMeta = true
		u.lastMetaFrame = now
	}
}

// Buffered reports the bytes currently awaiting transmission.
func (u *UE) Buffered() units.ByteCount { return u.bufBytes }

// segment describes one TB's share of one packet.
type segment struct {
	entry *bufEntry
	bytes units.ByteCount
	last  bool // carries the packet's final byte
}

// trackRetx registers a TB whose HARQ retransmission timer is pending.
func (u *UE) trackRetx(tb *transportBlock) {
	u.retx = append(u.retx, tb)
}

// untrackRetx removes tb from the pending-retransmission set (its retry
// fired, or a handover cancelled it).
func (u *UE) untrackRetx(tb *transportBlock) {
	for i, x := range u.retx {
		if x == tb {
			u.retx = append(u.retx[:i], u.retx[i+1:]...)
			return
		}
	}
}

// fill carves up to tbs bytes from the head of the buffer, marking
// transmission bookkeeping. grantKind records how the carrying TB was
// granted (for per-packet BSR-wait attribution).
func (u *UE) fill(tbs units.ByteCount, viaBSR bool, slotAt time.Duration) []segment {
	var segs []segment
	budget := tbs
	for budget > 0 && len(u.buf) > 0 {
		e := u.buf[0]
		take := e.remaining
		if take > budget {
			take = budget
		}
		e.remaining -= take
		u.bufBytes -= take
		budget -= take
		last := e.remaining == 0
		segs = append(segs, segment{entry: e, bytes: take, last: last})
		e.pendingTBs++
		e.lastFirstTx = slotAt
		e.lastViaBSR = viaBSR
		if last {
			e.fullySegmented = true
			u.buf = u.buf[1:]
		}
	}
	return segs
}
