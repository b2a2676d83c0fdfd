package core

import (
	"errors"
	"time"
)

// Feed-validation errors, matched with errors.Is. The wrapped message
// carries the offending record's identity.
var (
	// ErrOutOfOrder reports a capture record behind its stream's feed
	// head: captures append under a monotone clock, so a tap that
	// delivers out of order has lost or reordered data.
	ErrOutOfOrder = errors.New("record out of capture order")

	// ErrDuplicate reports a replayed sender record — the signature of a
	// replayed feed batch: one whose flow and extended sequence number
	// the feed already holds or a trim retired, or a sequence-less record
	// at its flow's newest sequence-less send time.
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
	// RefusedJoins counts core sightings refused a join since the feed
	// began because a clock error put them before the send
	// (Report.RefusedJoins).
	RefusedJoins int64 `json:"refused_joins"`
	// Advanced is the latest Advance clock.
	Advanced time.Duration `json:"advanced_ns"`
	// BufferedSender/BufferedCore/BufferedTBs are the retained window
	// sizes after trimming.
	BufferedSender int `json:"buffered_sender"`
	BufferedCore   int `json:"buffered_core"`
	BufferedTBs    int `json:"buffered_tbs"`
}
