package scenario

import (
	"fmt"
	"sort"
	"time"

	"athena/internal/core"
	"athena/internal/packet"
	"athena/internal/telemetry"
)

// SessionStream is one UE's replayable live feed, tapped off a completed
// topology run: exactly the capture and telemetry streams a cell-site
// Athena deployment would deliver to a session server, with the session
// configuration (flow coverage, clock offsets, cell timing) alongside.
//
// Input holds only the streams the live path ingests — sender capture,
// core capture, TB telemetry — so core.Correlate(Input) is the offline
// reference for the same feed: the streamed per-session attribution must
// digest-match it (core.Report.PacketsDigest vs core.ViewHasher). The
// slices alias the run's captures; treat them as read-only.
type SessionStream struct {
	// UE is the global UE index in the topology; ID is the suggested
	// session identifier ("ue<ranID>").
	UE int
	ID string

	// Cell is the UE's initial attach cell (Topology.Cells index);
	// Workload is the resolved application family. Both are rollup
	// dimension labels for a session server (session.Config.Cell /
	// .Workload).
	Cell     int
	Workload WorkloadKind

	Input core.Input
}

// SessionStreams taps every UE's live feed off the completed run: the
// per-UE inputs come from the same derivation as the run's own
// correlation stage (shardInputs), so replaying a stream into a live
// session reproduces the run's per-UE reports bit for bit. Streams are
// ordered by global UE index.
func (tr *TopologyResult) SessionStreams() []SessionStream {
	out := make([]SessionStream, 0, len(tr.UEs))
	for _, sr := range tr.Shards {
		for i, in := range shardInputs(tr.Top, sr, false) {
			u := sr.UEs[i]
			out = append(out, SessionStream{
				UE:       int(u.ID) - 1,
				ID:       fmt.Sprintf("ue%d", u.ID),
				Cell:     u.Spec.Cell,
				Workload: u.Workload,
				Input:    in,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UE < out[j].UE })
	return out
}

// StreamChunk is one delivery batch of a replayed session stream: every
// record captured in (previous AdvanceTo, AdvanceTo], per-stream capture
// order preserved.
type StreamChunk struct {
	AdvanceTo time.Duration
	Sender    []packet.Record
	Core      []packet.Record
	TBs       []telemetry.TBRecord
}

// Chunks slices the stream into tick-sized delivery batches, the way a
// live tap batches its uploads. Sender and core records keep capture
// order; TB telemetry is delivered in timestamp order (the merged
// multi-cell order — the live ingest is TB-order-free). The final chunk's
// AdvanceTo lands two seconds past the last record so a default-horizon
// session drains completely when the replay ends.
func (ss *SessionStream) Chunks(tick time.Duration) []StreamChunk {
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	in := &ss.Input
	tbs := append([]telemetry.TBRecord(nil), in.TBs...)
	sort.SliceStable(tbs, func(i, j int) bool { return tbs[i].At < tbs[j].At })

	end := time.Duration(0)
	if n := len(in.Sender); n > 0 && in.Sender[n-1].LocalTime > end {
		end = in.Sender[n-1].LocalTime
	}
	if n := len(in.Core); n > 0 && in.Core[n-1].LocalTime > end {
		end = in.Core[n-1].LocalTime
	}
	if n := len(tbs); n > 0 && tbs[n-1].At > end {
		end = tbs[n-1].At
	}

	var chunks []StreamChunk
	si, ci, ti := 0, 0, 0
	for now := tick; ; now += tick {
		ch := StreamChunk{AdvanceTo: now}
		s0 := si
		for si < len(in.Sender) && in.Sender[si].LocalTime <= now {
			si++
		}
		ch.Sender = in.Sender[s0:si]
		c0 := ci
		for ci < len(in.Core) && in.Core[ci].LocalTime <= now {
			ci++
		}
		ch.Core = in.Core[c0:ci]
		t0 := ti
		for ti < len(tbs) && tbs[ti].At <= now {
			ti++
		}
		ch.TBs = tbs[t0:ti]
		if now >= end {
			ch.AdvanceTo = end + 2*time.Second
			chunks = append(chunks, ch)
			return chunks
		}
		chunks = append(chunks, ch)
	}
}

// Replay feeds the stream into a live correlator in tick-sized batches
// and returns the first feed error. It is the in-process form of what the
// load generator does over HTTP.
func (ss *SessionStream) Replay(lc *core.LiveCorrelator, tick time.Duration) error {
	for _, ch := range ss.Chunks(tick) {
		for _, r := range ch.Sender {
			if err := lc.OnSenderRecord(r); err != nil {
				return err
			}
		}
		for _, r := range ch.Core {
			if err := lc.OnCoreRecord(r); err != nil {
				return err
			}
		}
		for _, tb := range ch.TBs {
			if err := lc.OnTB(tb); err != nil {
				return err
			}
		}
		if err := lc.Advance(ch.AdvanceTo); err != nil {
			return err
		}
	}
	return nil
}
