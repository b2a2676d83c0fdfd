// Package session is the service layer between the streaming correlator
// and a network server: a registry of independently-fed live attribution
// sessions with create/feed/query/close lifecycle, per-session bounded
// memory (the correlator's prefix trim plus a pending-packet admission
// bound), and per-session observability metrics.
//
// The ingest path is goroutine-free by design: feeding a session runs the
// correlator on the caller's goroutine under the session's mutex, so a
// server pays no per-session goroutine, no channel hop, and no queueing
// it did not ask for — concurrency across sessions comes from the callers
// (one HTTP handler goroutine per in-flight request), serialization
// within a session from the mutex.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/telemetry"
)

// Service-layer errors, matched with errors.Is. Feed validation errors
// from the correlator (core.ErrOutOfOrder and friends) pass through
// unwrapped.
var (
	// ErrClosed reports an operation on a closed session.
	ErrClosed = errors.New("session closed")

	// ErrBackpressure reports a feed batch that would push the session's
	// pending window past its admission bound. The batch is not ingested;
	// the feeder should advance the session clock (resolving or expiring
	// pending packets) before retrying.
	ErrBackpressure = errors.New("session pending window full")
)

// DefaultMaxPending bounds how many unresolved packets a session admits
// before applying backpressure; together with the correlator's prefix
// trim it caps per-session memory.
const DefaultMaxPending = 1 << 16

// Config describes one session at creation time.
type Config struct {
	// ID is the registry key.
	ID string `json:"id"`

	// Cell and Workload are the session's fleet rollup dimensions: which
	// cell the UE lives in and which workload family it runs. Optional;
	// empty labels aggregate under "unlabeled".
	Cell     string `json:"cell,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Input carries the session's correlation configuration: flow
	// coverage, clock offsets, cell timing, match tolerance. Any capture
	// slices inside are ignored — records arrive through Feed.
	Input core.Input `json:"input"`

	// FlushAfter overrides the correlator's emission horizon (how long a
	// packet may stay unresolved before being emitted as-is). Zero keeps
	// the correlator default.
	FlushAfter time.Duration `json:"flush_after_ns,omitempty"`

	// MaxPending overrides DefaultMaxPending; negative disables the bound.
	MaxPending int `json:"max_pending,omitempty"`
}

// Batch is one feed delivery: any mix of capture records and telemetry,
// plus the new session clock. Records must respect the correlator's feed
// contract (per-stream capture order, covered flows); AdvanceTo moves the
// session clock after the records are ingested and may only grow.
type Batch struct {
	Sender    []packet.Record      `json:"sender,omitempty"`
	Core      []packet.Record      `json:"core,omitempty"`
	TBs       []telemetry.TBRecord `json:"tbs,omitempty"`
	AdvanceTo time.Duration        `json:"advance_to_ns"`
}

// Status is a session's queryable state: feed progress, the canonical
// attribution digest over everything emitted so far, and the running
// root-cause breakdown.
type Status struct {
	ID     string            `json:"id"`
	Closed bool              `json:"closed,omitempty"`
	Feed   core.LiveSnapshot `json:"feed"`

	// Digest is the streaming attribution digest (core.ViewHasher) over
	// DigestViews emitted views; after a full replay it equals the
	// offline core.Report.PacketsDigest of the same feed.
	Digest      string `json:"digest"`
	DigestViews int    `json:"digest_views"`

	// Attribution is the running aggregate over every emitted view.
	Attribution Attribution `json:"attribution"`
}

// Attribution is the JSON form of the running root-cause breakdown.
// TotalNS carries the exact integer-nanosecond totals the fleet rollup
// folds: integer addition is associative, so the sum of every session's
// TotalNS equals the rollup's total bit-for-bit under any feed
// interleaving. TotalMS is its millisecond rendering.
type Attribution struct {
	Packets      int                    `json:"packets"`
	RetxAffected int                    `json:"retx_affected"`
	BSRServed    int                    `json:"bsr_served"`
	TotalMS      map[core.Cause]float64 `json:"total_ms,omitempty"`
	TotalNS      map[core.Cause]int64   `json:"total_ns,omitempty"`
}

// sessionHooks wires a session into registry-level observability: the
// fleet rollup fold, the structured event log, and the anomaly bound.
// The zero value is fully inert — sessions work standalone.
type sessionHooks struct {
	fold      rollupFold
	events    *obs.EventLog
	anomalyNS int64 // HARQ-attributed p99 bound (ns); 0 disables
}

// Session is one live attribution feed. All methods are safe for
// concurrent use; Feed calls serialize on the session mutex.
type Session struct {
	id     string
	cell   string
	family string

	mu     sync.Mutex
	lc     *core.LiveCorrelator
	hasher *core.ViewHasher
	attr   core.Attribution
	closed bool

	maxPending int

	hooks sessionHooks
	// anomalyOn tracks whether the HARQ p99 anomaly is currently raised,
	// so crossings emit one event per direction instead of one per feed.
	anomalyOn bool
	// harq is the HARQ-attributed delay per packet, recorded only when an
	// anomaly bound is set. Session state, not a metric: it is registered
	// nowhere, so no series name ever carries a session id.
	harq obs.Histogram
}

func newSession(cfg Config, hooks sessionHooks) *Session {
	s := &Session{
		id:         cfg.ID,
		cell:       cfg.Cell,
		family:     cfg.Workload,
		hasher:     core.NewViewHasher(),
		maxPending: cfg.MaxPending,
		hooks:      hooks,
	}
	if s.cell == "" {
		s.cell = unlabeledBin
	}
	if s.family == "" {
		s.family = unlabeledBin
	}
	if s.maxPending == 0 {
		s.maxPending = DefaultMaxPending
	}
	// The emit callback runs under the session mutex (it fires inside
	// Feed/close) and is done with the borrowed view when it returns.
	s.lc = core.NewLive(cfg.Input, func(v core.PacketView) {
		s.hasher.Add(v)
		if c, ok := v.Components(); ok {
			s.attr.Add(c)
			if s.hooks.anomalyNS > 0 {
				s.harq.Record(c[core.IdxHARQ])
			}
			s.hooks.fold.fold(c, v.SeenRecv)
		}
	})
	if cfg.FlushAfter > 0 {
		s.lc.FlushAfter = cfg.FlushAfter
	}
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Feed ingests one batch on the caller's goroutine. Records are applied
// in order (sender, core, TBs, then the clock advance); on a validation
// error the offending record and everything after it are not ingested,
// the error is returned, and the session stays usable — the feeder can
// correct its stream and continue. A batch whose sender records would
// overflow the pending bound is rejected whole with ErrBackpressure.
func (s *Session) Feed(b *Batch) (core.LiveSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return core.LiveSnapshot{}, fmt.Errorf("%w: %s", ErrClosed, s.id)
	}
	if snap := s.lc.Snapshot(); s.maxPending > 0 && snap.Pending+len(b.Sender) > s.maxPending {
		s.hooks.events.Emit(obs.Event{
			Type: "session.backpressure", Session: s.id, Cell: s.cell, Family: s.family,
			Value: int64(snap.Pending + len(b.Sender)),
		})
		return snap, fmt.Errorf("%w: %d pending + %d arriving > %d",
			ErrBackpressure, snap.Pending, len(b.Sender), s.maxPending)
	}
	err := s.feedLocked(b)
	if err != nil {
		s.hooks.events.Emit(obs.Event{
			Type: "session.reject", Session: s.id, Cell: s.cell, Family: s.family,
			Detail: err.Error(),
		})
	}
	s.checkAnomalyLocked()
	return s.lc.Snapshot(), err
}

func (s *Session) feedLocked(b *Batch) error {
	for i := range b.Sender {
		if err := s.lc.OnSenderRecord(b.Sender[i]); err != nil {
			return err
		}
	}
	for i := range b.Core {
		if err := s.lc.OnCoreRecord(b.Core[i]); err != nil {
			return err
		}
	}
	for i := range b.TBs {
		if err := s.lc.OnTB(b.TBs[i]); err != nil {
			return err
		}
	}
	if b.AdvanceTo > 0 {
		return s.lc.Advance(b.AdvanceTo)
	}
	return nil
}

// checkAnomalyLocked compares the session's HARQ-attributed p99 against
// the configured bound and emits one event per crossing: raised on the
// way up, cleared on the way back down. Quantile is allocation-free, so
// this rides every feed without disturbing the 0-alloc ingest contract.
func (s *Session) checkAnomalyLocked() {
	if s.hooks.anomalyNS <= 0 || s.harq.Count() == 0 {
		return
	}
	p99 := s.harq.Quantile(0.99)
	switch {
	case p99 > s.hooks.anomalyNS && !s.anomalyOn:
		s.anomalyOn = true
		s.hooks.events.Emit(obs.Event{
			Type: "session.anomaly", Session: s.id, Cell: s.cell, Family: s.family,
			Detail: "harq_p99_ns", Value: p99,
		})
	case p99 <= s.hooks.anomalyNS && s.anomalyOn:
		s.anomalyOn = false
		s.hooks.events.Emit(obs.Event{
			Type: "session.anomaly.clear", Session: s.id, Cell: s.cell, Family: s.family,
			Detail: "harq_p99_ns", Value: p99,
		})
	}
}

// Status reports the session's current state without disturbing the feed.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Session) statusLocked() Status {
	// The running totals are a plain array; the maps below are rendered
	// fresh for this Status, so encoding it after the mutex is released
	// shares nothing with concurrent feeds.
	var totalMS map[core.Cause]float64
	var totalNS map[core.Cause]int64
	if s.attr.Packets > 0 {
		totalMS = make(map[core.Cause]float64, core.NumCauses)
		totalNS = make(map[core.Cause]int64, core.NumCauses)
		for i, c := range core.Causes {
			totalMS[c] = s.attr.TotalMS(c)
			totalNS[c] = s.attr.TotalNS[i]
		}
	}
	return Status{
		ID:          s.id,
		Closed:      s.closed,
		Feed:        s.lc.Snapshot(),
		Digest:      s.hasher.Sum(),
		DigestViews: s.hasher.Count(),
		Attribution: Attribution{
			Packets:      s.attr.Packets,
			RetxAffected: s.attr.RetxAffected,
			BSRServed:    s.attr.BSRServed,
			TotalMS:      totalMS,
			TotalNS:      totalNS,
		},
	}
}

// close drains the session (pushing the clock past every buffered sender
// record's flush horizon, wherever the feed left the clock), marks it
// closed, and returns the final status. Idempotent via the registry,
// which removes the session before calling.
func (s *Session) close() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		if s.lc.Pending() > 0 {
			// Drain derives its clock from both the Advance head and the
			// last sender record, so pending packets are flushed even if
			// the feeder never advanced the clock or used absolute
			// (e.g. epoch-based) record times far ahead of it.
			_ = s.lc.Drain()
		}
		s.closed = true
	}
	return s.statusLocked()
}
