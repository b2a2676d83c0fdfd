package session

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
)

// Registry-level metrics: lifecycle counters plus the active-session
// gauge a capacity dashboard watches.
var (
	metActive  = obs.NewGauge("serve.sessions.active")
	metCreated = obs.NewCounter("serve.sessions.created")
	metClosed  = obs.NewCounter("serve.sessions.closed")
)

// Registry errors.
var (
	// ErrExists reports a Create with an ID already registered.
	ErrExists = fmt.Errorf("session id already exists")

	// ErrNotFound reports an operation on an unknown session ID.
	ErrNotFound = fmt.Errorf("session not found")

	// ErrInvalidID reports a Create with an empty or oversized ID.
	ErrInvalidID = fmt.Errorf("invalid session id")

	// ErrFull reports a Create beyond the registry's session capacity.
	ErrFull = fmt.Errorf("session capacity reached")
)

// Registry is the concurrent-safe session directory: creation, lookup,
// enumeration and teardown. Per-session work never runs under the
// registry lock — lookups return the session and feeding proceeds on the
// session's own mutex, so one slow feed cannot stall another session's
// create or query.
type Registry struct {
	// MaxSessions bounds concurrent sessions; zero means unbounded.
	MaxSessions int

	// Events, when set, receives the structured lifecycle stream:
	// session.create / session.close / session.backpressure /
	// session.reject / session.anomaly[.clear] / registry.drain. Set it
	// before the first Create; nil disables emission entirely.
	Events *obs.EventLog

	// AnomalyHARQP99 bounds each session's HARQ-attributed p99 delay;
	// a session whose p99 crosses it emits a session.anomaly event (and
	// session.anomaly.clear when it recovers). Zero disables the check.
	AnomalyHARQP99 time.Duration

	mu       sync.RWMutex
	sessions map[string]*Session

	rollup *Rollup
	start  time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		sessions: make(map[string]*Session),
		rollup:   NewRollup(),
		start:    time.Now(),
	}
}

// Uptime reports how long the registry has been alive.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Overview reports the fleet rollup: exact cause totals over every view
// any session (live or closed) has emitted, per-cell and per-family
// breakdowns, and event-stream accounting.
func (r *Registry) Overview() Overview {
	o := r.rollup.Snapshot()
	o.Sessions = r.Len()
	o.UptimeSeconds = r.Uptime().Seconds()
	if r.Events != nil {
		st := r.Events.Stats()
		o.Events = &st
	}
	return o
}

// maxLabelLen bounds a session ID and its Cell and Workload labels.
const maxLabelLen = 128

// Create registers a new session. The ID must be non-empty, at most 128
// bytes, and unused; Cell and Workload are at most 128 bytes too. The
// bounds are server policy: a create may lower MaxPending and FlushAfter
// below their defaults, but not raise or disable them.
func (r *Registry) Create(cfg Config) (*Session, error) {
	if cfg.ID == "" || len(cfg.ID) > maxLabelLen {
		return nil, fmt.Errorf("%w: %q", ErrInvalidID, cfg.ID)
	}
	if len(cfg.Cell) > maxLabelLen || len(cfg.Workload) > maxLabelLen {
		return nil, fmt.Errorf("%w: cell (%d bytes) or workload (%d bytes) over %d", ErrInvalidConfig, len(cfg.Cell), len(cfg.Workload), maxLabelLen)
	}
	if cfg.MaxPending < 0 || cfg.MaxPending > DefaultMaxPending {
		return nil, fmt.Errorf("%w: max_pending %d outside [0, %d]", ErrInvalidConfig, cfg.MaxPending, DefaultMaxPending)
	}
	if cfg.FlushAfter < 0 || cfg.FlushAfter > core.DefaultFlushAfter {
		return nil, fmt.Errorf("%w: flush_after_ns %d outside [0, %d]", ErrInvalidConfig, cfg.FlushAfter, core.DefaultFlushAfter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[cfg.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.ID)
	}
	if r.MaxSessions > 0 && len(r.sessions) >= r.MaxSessions {
		return nil, fmt.Errorf("%w: %d", ErrFull, r.MaxSessions)
	}
	s := newSession(cfg, sessionHooks{
		fold:      r.rollup.Bind(cfg.Cell, cfg.Workload),
		events:    r.Events,
		anomalyNS: int64(r.AnomalyHARQP99),
	})
	r.sessions[cfg.ID] = s
	metCreated.Inc()
	metActive.Set(int64(len(r.sessions)))
	r.Events.Emit(obs.Event{
		Type: "session.create", Session: s.id, Cell: s.cell, Family: s.family,
	})
	return s, nil
}

// Get returns the session registered under id.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[id]
	return s, ok
}

// Len reports the number of active sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// List reports every active session's status, ordered by ID.
func (r *Registry) List() []Status {
	r.mu.RLock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.RUnlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	return out
}

// Close drains and removes one session, returning its final status.
func (r *Registry) Close(id string) (Status, error) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		delete(r.sessions, id)
		metClosed.Inc()
		metActive.Set(int64(len(r.sessions)))
	}
	r.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	st := s.close()
	r.Events.Emit(obs.Event{
		Type: "session.close", Session: s.id, Cell: s.cell, Family: s.family,
		Detail: st.Digest, Value: int64(st.Attribution.Packets),
	})
	return st, nil
}

// CloseAll drains every session — the server's graceful-shutdown path —
// and returns the final statuses ordered by ID.
func (r *Registry) CloseAll() []Status {
	r.mu.Lock()
	sessions := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		sessions = append(sessions, s)
		delete(r.sessions, id)
	}
	metClosed.Add(int64(len(sessions)))
	metActive.Set(0)
	r.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	if len(sessions) > 0 {
		r.Events.Emit(obs.Event{Type: "registry.drain", Value: int64(len(sessions))})
	}
	out := make([]Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.close()
		r.Events.Emit(obs.Event{
			Type: "session.close", Session: s.id, Cell: s.cell, Family: s.family,
			Detail: out[i].Digest, Value: int64(out[i].Attribution.Packets),
		})
	}
	return out
}
