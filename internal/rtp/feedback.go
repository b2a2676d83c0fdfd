package rtp

import (
	"slices"
	"time"
)

// Transport-wide congestion-control feedback, modeled after the WebRTC
// transport-cc RTCP extension: the receiver periodically reports, for each
// transport-wide sequence number, the (receiver-clock) arrival time. GCC's
// delay-gradient estimator runs entirely off these reports.
//
// The §5.3 "delay masking" mitigation rewrites the arrival times in these
// reports on their way through the RAN (cc.MaskFeedback, on the typed
// report).

// ArrivalInfo is one (sequence, arrival) pair in a feedback report.
// Lost packets are reported with Received=false.
type ArrivalInfo struct {
	Seq      uint16
	Received bool
	// Arrival is the receiver-clock arrival timestamp.
	Arrival time.Duration
	// ECE reports whether the packet arrived with the ECN-CE mark (L4S).
	ECE bool
}

// Feedback is one transport-wide feedback report.
type Feedback struct {
	SSRC    uint32 // media SSRC being reported on
	Reports []ArrivalInfo
}

const feedbackEntrySize = 2 + 1 + 8 // seq + flags + arrival (ns)

// WireSize reports the serialized size of the report, from which the
// receiver sizes its RTCP packets. Format (simulation-internal):
//
//	0:4   SSRC
//	4:6   count
//	then per entry: seq(2) flags(1: bit0 received, bit1 ECE) arrival ns (8)
func (f *Feedback) WireSize() int { return 6 + len(f.Reports)*feedbackEntrySize }

// FeedbackBuilder accumulates arrivals at the receiver and cuts periodic
// reports. Sequence gaps become loss entries only after ReorderGrace has
// elapsed without the packet appearing: 5G HARQ retransmissions reorder
// the stream by tens of milliseconds, and declaring those packets lost
// would feed congestion control a phantom loss signal on top of the
// phantom delay signal the paper already documents.
type FeedbackBuilder struct {
	pending []ArrivalInfo
	ssrc    uint32
	maxSeq  uint16
	haveMax bool
	// missing tracks gap sequences and when the gap was first noticed.
	missing map[uint16]time.Duration

	// ReorderGrace is how long a gap may stand before it is reported
	// lost; it must exceed the worst plausible HARQ reordering.
	ReorderGrace time.Duration
}

// maxGapSynthesis bounds how many missing sequences one arrival may open,
// so a sequence discontinuity (sender restart) cannot flood the state.
const maxGapSynthesis = 128

// NewFeedbackBuilder creates a builder for one media SSRC.
func NewFeedbackBuilder(ssrc uint32) *FeedbackBuilder {
	return &FeedbackBuilder{
		ssrc:         ssrc,
		missing:      make(map[uint16]time.Duration),
		ReorderGrace: 150 * time.Millisecond,
	}
}

// OnArrival records a received packet, opening gap candidates for any
// sequences skipped since the highest seen.
func (b *FeedbackBuilder) OnArrival(seq uint16, at time.Duration, ece bool) {
	delete(b.missing, seq) // a late arrival closes its gap
	if b.haveMax && seqNewer(seq, b.maxSeq) {
		if gap := seq - b.maxSeq - 1; gap > 0 && gap <= maxGapSynthesis {
			for s := b.maxSeq + 1; s != seq; s++ {
				b.missing[s] = at
			}
		}
	}
	if !b.haveMax || seqNewer(seq, b.maxSeq) {
		b.maxSeq = seq
		b.haveMax = true
	}
	b.pending = append(b.pending, ArrivalInfo{Seq: seq, Received: true, Arrival: at, ECE: ece})
}

// ExpireGaps converts gaps older than ReorderGrace into loss entries, in
// sequence order; the receiver calls it just before flushing a report.
func (b *FeedbackBuilder) ExpireGaps(now time.Duration) {
	from := len(b.pending)
	for seq, first := range b.missing {
		if now-first >= b.ReorderGrace {
			b.pending = append(b.pending, ArrivalInfo{Seq: seq})
			delete(b.missing, seq)
		}
	}
	// Map iteration order is random. Every gap lies behind maxSeq, so
	// the oldest sequence is the one furthest behind it, wrap included.
	if lost := b.pending[from:]; len(lost) > 1 {
		slices.SortFunc(lost, func(x, y ArrivalInfo) int {
			return int(b.maxSeq-y.Seq) - int(b.maxSeq-x.Seq)
		})
	}
}

// seqNewer reports whether a is after b in RFC 1982 serial order.
func seqNewer(a, b uint16) bool { return a != b && a-b < 0x8000 }

// Flush cuts a report containing everything since the previous flush, or
// nil if nothing is pending.
func (b *FeedbackBuilder) Flush() *Feedback {
	if len(b.pending) == 0 {
		return nil
	}
	f := &Feedback{SSRC: b.ssrc, Reports: b.pending}
	// The report keeps the slice; the next one is sized like it rather
	// than regrown from one element.
	b.pending = make([]ArrivalInfo, 0, len(f.Reports))
	return f
}

// Pending reports the number of unflushed arrivals.
func (b *FeedbackBuilder) Pending() int { return len(b.pending) }
