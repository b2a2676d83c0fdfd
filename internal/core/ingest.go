package core

import (
	"errors"
	"time"

	"athena/internal/packet"
	"athena/internal/telemetry"
)

// Ingest is the streaming ingestion boundary of the live correlator: the
// contract a long-running attribution service holds against each feed.
// Records arrive incrementally through the On* methods, Advance moves the
// session clock (emitting every packet whose fate is settled), and
// Snapshot reports the feed's progress without disturbing it.
//
// Unlike the historical silent-append methods, every feed call validates
// its input and returns an explicit error instead of letting a malformed
// feed surface later as a misjoin:
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
// the TB reconstruction tolerates that.
//
// A call that returns an error has not ingested the offending record;
// the session's prior state is untouched and the feed may continue.
type Ingest interface {
	OnSenderRecord(packet.Record) error
	OnCoreRecord(packet.Record) error
	OnTB(telemetry.TBRecord) error
	Advance(now time.Duration) error
	Snapshot() LiveSnapshot
}

// Feed-validation errors, matched with errors.Is. The wrapped message
// carries the offending record's identity.
var (
	// ErrOutOfOrder reports a capture record behind its stream's feed
	// head: captures append under a monotone clock, so a tap that
	// delivers out of order has lost or reordered data.
	ErrOutOfOrder = errors.New("record out of capture order")

	// ErrDuplicate reports a sender record identical to one already fed —
	// the signature of a replayed feed batch.
	ErrDuplicate = errors.New("duplicate sender record")

	// ErrFlowNotCovered reports a record whose flow is absent from
	// Input.Flows. Flows must cover every flow that entered the monitored
	// uplink buffer; feeding an uncovered record means the feed is routed
	// from the wrong capture.
	ErrFlowNotCovered = errors.New("flow not covered by Input.Flows")

	// ErrTimeRegression reports an Advance clock behind a previous one.
	ErrTimeRegression = errors.New("advance clock moved backwards")
)

// LiveSnapshot is a point-in-time view of a live feed's progress. It is
// cheap to take (plain field reads) and never perturbs the feed.
type LiveSnapshot struct {
	// Emitted counts views emitted in send order since the feed began.
	Emitted int64 `json:"emitted"`
	// Pending counts fed sender records awaiting emission.
	Pending int `json:"pending"`
	// Trims counts state-discarding trims (mid-stream prefix cuts and
	// full-drain resets) — the memory bound at work.
	Trims int64 `json:"trims"`
	// Advanced is the latest Advance clock.
	Advanced time.Duration `json:"advanced_ns"`
	// BufferedSender/BufferedCore/BufferedTBs are the retained window
	// sizes after trimming.
	BufferedSender int `json:"buffered_sender"`
	BufferedCore   int `json:"buffered_core"`
	BufferedTBs    int `json:"buffered_tbs"`
}
