package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
)

// API metrics.
var (
	metHTTPRequests = obs.NewCounter("serve.http.requests")
	metHTTPErrors   = obs.NewCounter("serve.http.errors")
	metFeedNs       = obs.NewHistogram("serve.http.feed_ns")
)

// Request-body limits: a body is read whole, up to its bound, before any
// JSON is decoded, so a single oversized or streaming POST cannot exhaust
// server memory regardless of the per-session admission bound. A create
// carries one Config; a feed carries one Batch of records.
const (
	maxCreateBytes = 1 << 20 // 1 MiB
	maxFeedBytes   = 8 << 20 // 8 MiB
)

// feedScratch is what one feed request borrows from feedPool: the body
// bytes and the Batch decoded from them. Session.Feed retains nothing of
// the Batch past its return (TestFeedRetainsNothingOfBatch), so both go
// back to the pool when the handler does.
type feedScratch struct {
	body  bytes.Buffer
	batch Batch
}

var feedPool = sync.Pool{New: func() any { return new(feedScratch) }}

// Pool retention caps: a scratch that grew past either is dropped for the
// GC instead of returned, so one 8 MiB POST cannot pin 8 MiB (or the
// records decoded from it) per P for the life of the server. A 100 ms
// batch of one VCA session is ~13 KB and ~70 records.
const (
	maxPooledBodyBytes = 256 << 10
	maxPooledRecords   = 4096
)

func (fs *feedScratch) poolable() bool {
	b := &fs.batch
	return fs.body.Cap() <= maxPooledBodyBytes && cap(b.Sender)+cap(b.Core)+cap(b.TBs) <= maxPooledRecords
}

// FeedResponse is the reply to a records POST: how many records of each
// stream were ingested and the session's post-feed progress.
type FeedResponse struct {
	Sender int               `json:"sender"`
	Core   int               `json:"core"`
	TBs    int               `json:"tbs"`
	Feed   core.LiveSnapshot `json:"feed"`
}

// errorBody is the JSON error envelope of every non-2xx reply.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the session API over this registry:
//
//	POST   /v1/sessions                   create (Config body) → 201 Status
//	GET    /v1/sessions                   list → []Status
//	POST   /v1/sessions/{id}/records      feed (Batch body) → FeedResponse
//	GET    /v1/sessions/{id}/attribution  query → Status
//	DELETE /v1/sessions/{id}              drain and close → final Status
//	GET    /v1/overview                   fleet rollup → Overview
//	GET    /v1/events                     structured event stream (JSON
//	                                      long-poll via ?since=&max=&wait=,
//	                                      or SSE via Accept: text/event-stream)
//	GET    /metrics                       Prometheus text exposition, or the
//	                                      JSON snapshot via Accept: application/json
//	GET    /metrics/json                  obs registry snapshot (JSON, always)
//	GET    /healthz                       liveness: status, session count, uptime
//
// Error statuses: 400 for malformed bodies (a syntax error names its byte
// offset), for anything but whitespace after the one JSON value a create
// or feed body carries, for create bounds outside the server's (the body
// names the field), and for feed-contract violations (the body names the
// offending record), 404 for unknown sessions, 409 for duplicate IDs
// or closed sessions, 413 for request bodies past the decode bound, 429
// for backpressure and session capacity.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	mux.HandleFunc("GET /v1/sessions", r.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/records", r.handleFeed)
	mux.HandleFunc("GET /v1/sessions/{id}/attribution", r.handleAttribution)
	mux.HandleFunc("DELETE /v1/sessions/{id}", r.handleClose)
	mux.HandleFunc("GET /v1/overview", r.handleOverview)
	mux.HandleFunc("GET /v1/events", r.handleEvents)
	mux.Handle("GET /metrics", obs.MetricsHandler())
	mux.Handle("GET /metrics/json", obs.MetricsJSONHandler())
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return countRequests(mux)
}

// countRequests wraps the mux with the request counter.
func countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		metHTTPRequests.Inc()
		next.ServeHTTP(w, req)
	})
}

func (r *Registry) handleCreate(w http.ResponseWriter, req *http.Request) {
	var body bytes.Buffer
	var cfg Config
	err := readBody(w, req, maxCreateBytes, &body)
	if err == nil {
		err = json.Unmarshal(body.Bytes(), &cfg)
	}
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	s, err := r.Create(cfg)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

func (r *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.List())
}

func (r *Registry) handleFeed(w http.ResponseWriter, req *http.Request) {
	s, ok := r.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	fs := feedPool.Get().(*feedScratch)
	defer func() {
		if fs.poolable() {
			feedPool.Put(fs)
		}
	}()
	b := &fs.batch
	err := readBody(w, req, maxFeedBytes, &fs.body)
	if err == nil {
		// Called directly: json.Unmarshal would scan the body for validity
		// first, which the fast path does as it parses and the fallback
		// does itself.
		err = b.UnmarshalJSON(fs.body.Bytes())
	}
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	start := time.Now()
	snap, err := s.Feed(b)
	metFeedNs.ObserveDuration(time.Since(start))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, FeedResponse{
		Sender: len(b.Sender), Core: len(b.Core), TBs: len(b.TBs), Feed: snap,
	})
}

func (r *Registry) handleAttribution(w http.ResponseWriter, req *http.Request) {
	s, ok := r.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (r *Registry) handleClose(w http.ResponseWriter, req *http.Request) {
	st, err := r.Close(req.PathValue("id"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthBody is the /healthz reply: liveness plus the two numbers an
// external monitor wants before scraping anything deeper.
type healthBody struct {
	Status        string  `json:"status"`
	Sessions      int     `json:"sessions"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (r *Registry) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{
		Status:        "ok",
		Sessions:      r.Len(),
		UptimeSeconds: r.Uptime().Seconds(),
	})
}

func (r *Registry) handleOverview(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Overview())
}

// EventsResponse is the JSON long-poll reply of GET /v1/events.
type EventsResponse struct {
	// Events are the buffered events after the requested cursor, oldest
	// first. Dropped counts events evicted from the ring before this
	// consumer could read them (detectable gap, never silent).
	Events  []obs.Event `json:"events"`
	Dropped int64       `json:"dropped,omitempty"`

	// Next is the cursor to pass as ?since= on the next poll.
	Next uint64 `json:"next"`

	Stats obs.EventLogStats `json:"stats"`
}

// eventsWaitCap bounds how long one long-poll request may hold its
// handler goroutine.
const eventsWaitCap = 30 * time.Second

// handleEvents serves the structured event stream. Query parameters:
// since (resume cursor, default 0), max (page size, default all
// buffered), wait (long-poll duration, Go syntax e.g. "5s"; also the SSE
// session length). With Accept: text/event-stream events arrive as SSE
// "data:" frames as they happen; otherwise one JSON page is returned,
// after blocking up to wait if the log is empty past the cursor.
func (r *Registry) handleEvents(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	since, err := parseUintParam(q.Get("since"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
		return
	}
	max, err := parseUintParam(q.Get("max"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad max: %w", err))
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait: %w", err))
			return
		}
		if wait > eventsWaitCap {
			wait = eventsWaitCap
		}
	}
	if strings.Contains(req.Header.Get("Accept"), "text/event-stream") {
		r.serveEventsSSE(w, req, since, wait)
		return
	}

	deadline := time.Now().Add(wait)
	for {
		changed := r.Events.Changed()
		evs, dropped, next := r.Events.Since(since, int(max))
		if len(evs) > 0 || dropped > 0 || wait <= 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, EventsResponse{
				Events: evs, Dropped: dropped, Next: next, Stats: r.Events.Stats(),
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-changed:
		case <-timer.C:
		case <-req.Context().Done():
		}
		timer.Stop()
		if req.Context().Err() != nil {
			return
		}
	}
}

// serveEventsSSE streams events as server-sent "data:" frames until the
// client disconnects or the wait window (default eventsWaitCap) closes.
// The server runs without a WriteTimeout so the window can be long; each
// flush therefore carries its own write deadline at the window's end, or
// a client that stopped reading would pin this goroutine in Write until
// the kernel gave up on the connection.
func (r *Registry) serveEventsSSE(w http.ResponseWriter, req *http.Request, since uint64, wait time.Duration) {
	if wait <= 0 {
		wait = eventsWaitCap
	}
	end := time.Now().Add(wait)
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if err := rc.Flush(); err != nil { // commits the 200 and the headers
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported: %w", err))
		return
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	enc := json.NewEncoder(w)
	for {
		changed := r.Events.Changed()
		evs, dropped, next := r.Events.Since(since, 0)
		if len(evs) > 0 || dropped > 0 {
			// Unsupported only on writers with no connection to stall on.
			_ = rc.SetWriteDeadline(end)
			if dropped > 0 {
				fmt.Fprintf(w, "event: dropped\ndata: %d\n\n", dropped)
			}
			for i := range evs {
				if _, err := w.Write([]byte("data: ")); err != nil {
					return
				}
				if err := enc.Encode(evs[i]); err != nil { // Encode writes the trailing \n
					return
				}
				if _, err := w.Write([]byte("\n")); err != nil {
					return
				}
			}
			if err := rc.Flush(); err != nil {
				return
			}
			// Cleared so the chunked trailer of a stream that ends on time
			// is not written against an expired deadline.
			_ = rc.SetWriteDeadline(time.Time{})
		}
		since = next
		select {
		case <-changed:
		case <-deadline.C:
			return
		case <-req.Context().Done():
			return
		}
	}
}

// parseUintParam parses an optional non-negative integer query value.
func parseUintParam(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// readBody reads the whole request body, at most limit bytes of it, into
// buf. Decoding from the complete bytes (not a json.Decoder over the
// stream, which stops after the first value) is what makes trailing data
// an error instead of silently dropped records.
func readBody(w http.ResponseWriter, req *http.Request, limit int64, buf *bytes.Buffer) error {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, limit))
	return err
}

// writeDecodeError answers a request whose body could not be read or
// decoded: 413 when the bounded reader cut the body off, 400 otherwise,
// with the byte offset a json.SyntaxError carries but does not print.
func writeDecodeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	var se *json.SyntaxError
	switch {
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &se):
		err = fmt.Errorf("%w (at byte offset %d)", err, se.Offset)
	}
	writeError(w, status, err)
}

// statusOf maps service and feed-contract errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrClosed):
		return http.StatusConflict
	case errors.Is(err, ErrBackpressure), errors.Is(err, ErrFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrOutOfOrder), errors.Is(err, core.ErrDuplicate),
		errors.Is(err, core.ErrFlowNotCovered), errors.Is(err, core.ErrTimeRegression),
		errors.Is(err, ErrInvalidID), errors.Is(err, ErrInvalidConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	metHTTPErrors.Inc()
	writeJSON(w, status, errorBody{Error: err.Error()})
}
