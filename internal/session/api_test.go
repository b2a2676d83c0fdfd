package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
)

// do round-trips a JSON request through the API handler.
func do(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func TestAPISessionLifecycle(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()

	// Create.
	rr, body := do(t, h, "POST", "/v1/sessions", Config{ID: "api1"})
	if rr.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rr.Code, body)
	}
	// Duplicate create conflicts.
	if rr, _ := do(t, h, "POST", "/v1/sessions", Config{ID: "api1"}); rr.Code != http.StatusConflict {
		t.Fatalf("dup create: %d", rr.Code)
	}

	// Feed the whole synthetic workload in chunks over HTTP.
	in := synthFeed(100)
	for i := 0; i < len(in.Sender); i += 20 {
		b := Batch{
			Sender:    in.Sender[i : i+20],
			Core:      in.Core[i : i+20],
			AdvanceTo: in.Sender[i+19].LocalTime,
		}
		rr, body := do(t, h, "POST", "/v1/sessions/api1/records", b)
		if rr.Code != http.StatusOK {
			t.Fatalf("feed: %d %s", rr.Code, body)
		}
		var fr FeedResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Sender != 20 {
			t.Fatalf("accepted %d sender records", fr.Sender)
		}
	}
	last := in.Sender[len(in.Sender)-1].LocalTime
	if rr, body := do(t, h, "POST", "/v1/sessions/api1/records",
		Batch{AdvanceTo: last + 30*time.Second}); rr.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", rr.Code, body)
	}

	// Query attribution: digest must equal the offline correlation.
	rr, body = do(t, h, "GET", "/v1/sessions/api1/attribution", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("attribution: %d", rr.Code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Feed.Emitted != 100 || st.Feed.Pending != 0 {
		t.Fatalf("feed state: %+v", st.Feed)
	}
	if want := core.Correlate(in).PacketsDigest(); st.Digest != want {
		t.Fatalf("HTTP digest %s != offline %s", st.Digest, want)
	}
	if st.Attribution.Packets == 0 && len(in.TBs) > 0 {
		t.Fatal("no attributed packets")
	}

	// List.
	rr, body = do(t, h, "GET", "/v1/sessions", nil)
	var list []Status
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "api1" {
		t.Fatalf("list: %s", body)
	}

	// Delete returns the final status; a second delete is 404.
	rr, body = do(t, h, "DELETE", "/v1/sessions/api1", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rr.Code, body)
	}
	var final Status
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if !final.Closed || final.Digest != st.Digest {
		t.Fatalf("final status wrong: %+v", final)
	}
	if rr, _ := do(t, h, "DELETE", "/v1/sessions/api1", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", rr.Code)
	}
}

func TestAPIErrorMapping(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()

	// Unknown session.
	if rr, _ := do(t, h, "POST", "/v1/sessions/ghost/records", Batch{}); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown feed: %d", rr.Code)
	}
	if rr, _ := do(t, h, "GET", "/v1/sessions/ghost/attribution", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown query: %d", rr.Code)
	}
	// Invalid ID.
	if rr, _ := do(t, h, "POST", "/v1/sessions", Config{ID: ""}); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty id: %d", rr.Code)
	}
	// Malformed body.
	req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewBufferString("{nope"))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", rr.Code)
	}

	// Anything after the one JSON value is a 400 naming the offset, and
	// nothing of the body is applied: a second concatenated value used to
	// be dropped behind a 200.
	in := synthFeed(2)
	do(t, h, "POST", "/v1/sessions", Config{ID: "t"})
	first, _ := json.Marshal(Batch{Sender: in.Sender[:1]})
	second, _ := json.Marshal(Batch{Sender: in.Sender[1:]})
	for _, c := range []struct{ name, path, body, offset string }{
		{"two batches", "/v1/sessions/t/records", string(first) + string(second), strconv.Itoa(len(first) + 1)},
		{"batch then garbage", "/v1/sessions/t/records", `{"advance_to_ns":1} x`, "21"},
		{"two configs", "/v1/sessions", `{"id":"t2"}{"id":"t3"}`, "12"},
	} {
		rr := post(h, c.path, []byte(c.body))
		if want := "after top-level value (at byte offset " + c.offset + ")"; rr.Code != http.StatusBadRequest ||
			!strings.Contains(rr.Body.String(), want) {
			t.Fatalf("%s: %d %s, want 400 with %q", c.name, rr.Code, rr.Body, want)
		}
	}
	if st, _ := reg.Get("t"); st.Status().Feed.BufferedSender != 0 {
		t.Fatalf("rejected feed body was partly ingested: %+v", st.Status().Feed)
	}
	if _, ok := reg.Get("t2"); ok {
		t.Fatal("rejected create body made a session")
	}

	// Feed-contract violation surfaces as 400 with the sentinel's message.
	do(t, h, "POST", "/v1/sessions", Config{ID: "e"})
	do(t, h, "POST", "/v1/sessions/e/records", Batch{Sender: in.Sender[1:]})
	rr2, body := do(t, h, "POST", "/v1/sessions/e/records", Batch{Sender: in.Sender[:1]})
	if rr2.Code != http.StatusBadRequest {
		t.Fatalf("out-of-order: %d %s", rr2.Code, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("error envelope missing: %s", body)
	}

	// Backpressure is 429.
	do(t, h, "POST", "/v1/sessions", Config{ID: "bp", MaxPending: 5})
	big := synthFeed(6)
	if rr, _ := do(t, h, "POST", "/v1/sessions/bp/records", Batch{Sender: big.Sender}); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("backpressure: %d", rr.Code)
	}

	// Capacity is 429.
	reg.MaxSessions = reg.Len()
	if rr, _ := do(t, h, "POST", "/v1/sessions", Config{ID: "over"}); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("capacity: %d", rr.Code)
	}
}

// Oversized request bodies are cut off at the decode bound and map to
// 413, before the server buffers an unbounded payload.
func TestAPIBodyTooLarge(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()

	// Valid JSON whose string value runs past the create bound.
	var buf bytes.Buffer
	buf.WriteString(`{"id":"`)
	buf.Write(bytes.Repeat([]byte("a"), maxCreateBytes+1))
	buf.WriteString(`"}`)
	req := httptest.NewRequest("POST", "/v1/sessions", &buf)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: %d", rr.Code)
	}

	do(t, h, "POST", "/v1/sessions", Config{ID: "big"})
	buf.Reset()
	buf.WriteString(`{"advance_to_ns":1,"padding":"`)
	buf.Write(bytes.Repeat([]byte("b"), maxFeedBytes+1))
	buf.WriteString(`"}`)
	req = httptest.NewRequest("POST", "/v1/sessions/big/records", &buf)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized feed: %d", rr.Code)
	}
	// The session itself is untouched and stays usable.
	if rr, body := do(t, h, "POST", "/v1/sessions/big/records", Batch{AdvanceTo: time.Second}); rr.Code != http.StatusOK {
		t.Fatalf("session unusable after oversized feed: %d %s", rr.Code, body)
	}
}

func TestAPIMetricsAndHealth(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()

	// /healthz is now structured: liveness plus session count and uptime.
	rr, body := do(t, h, "GET", "/healthz", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rr.Code)
	}
	var health struct {
		Status        string  `json:"status"`
		Sessions      int     `json:"sessions"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if health.Status != "ok" || health.Sessions != 0 || health.UptimeSeconds < 0 {
		t.Fatalf("healthz body: %+v", health)
	}

	// Bare /metrics is Prometheus text exposition...
	rr, body = do(t, h, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	if _, err := obs.ParsePrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("metrics exposition does not lint: %v", err)
	}

	// ...while Accept: application/json and /metrics/json keep the JSON
	// snapshot for existing scrapers.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	jr := httptest.NewRecorder()
	h.ServeHTTP(jr, req)
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(jr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("Accept-negotiated metrics not JSON: %v", err)
	}
	rr, body = do(t, h, "GET", "/metrics/json", nil)
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics/json not JSON: %v", err)
	}
}

// TestMetricsPageIndependentOfSessions pins that no series is named after
// a session: the /metrics page has the same families with 100 live, fed
// sessions as with none, grows by value digits only (it grew 630 B per
// session when each registered session.<id>.*), and ids that alias as
// name prefixes (ue1 / ue1.x) or collide after PromName (a.b / a-b) do
// not disturb one another.
func TestMetricsPageIndependentOfSessions(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	reg := NewRegistry()
	reg.AnomalyHARQP99 = time.Nanosecond // the HARQ tracker is live too
	h := reg.Handler()
	scrape := func() (map[string]bool, int) {
		rr, body := do(t, h, "GET", "/metrics", nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("metrics: %d", rr.Code)
		}
		page, err := obs.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("exposition does not lint: %v", err)
		}
		names := make(map[string]bool, len(page.Families))
		for name := range page.Families {
			names[name] = true
		}
		return names, len(body)
	}
	feed := func(id string) {
		s, err := reg.Create(Config{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		feedAllTB(t, s, synthFeedTB(10), 5)
	}

	// Warm every feed-path series with a session that is gone again.
	feed("warm")
	if _, err := reg.Close("warm"); err != nil {
		t.Fatal(err)
	}
	before, sizeBefore := scrape()

	ids := []string{"ue1", "ue1.x", "a.b", "a-b"}
	for i := len(ids); i < 100; i++ {
		ids = append(ids, fmt.Sprintf("live%d", i))
	}
	for _, id := range ids {
		feed(id)
	}
	after, sizeAfter := scrape()
	for name := range after {
		if !before[name] {
			t.Fatalf("family %s appeared with live sessions (%d families, %d with none)", name, len(after), len(before))
		}
	}
	if grew := sizeAfter - sizeBefore; grew >= len(ids) {
		t.Errorf("/metrics grew %d bytes over %d sessions; want value digits only", grew, len(ids))
	}

	if _, err := reg.Close("ue1"); err != nil {
		t.Fatal(err)
	}
	rr, body := do(t, h, "GET", "/v1/sessions/ue1.x/attribution", nil)
	var st Status
	if err := json.Unmarshal(body, &st); rr.Code != http.StatusOK || err != nil {
		t.Fatalf("ue1.x after closing ue1: %d %v", rr.Code, err)
	}
	if st.Attribution.Packets != 10 || st.Feed.Emitted != 10 {
		t.Fatalf("ue1.x lost state when ue1 closed: %+v", st)
	}
}

// TestAPIOverviewAndEvents drives the fleet endpoints end to end over
// HTTP: the overview totals mirror the sessions' attribution exactly,
// and the event stream paginates by cursor, long-polls, and streams SSE.
func TestAPIOverviewAndEvents(t *testing.T) {
	reg := NewRegistry()
	reg.Events = obs.NewEventLog(64)
	h := reg.Handler()

	if rr, body := do(t, h, "POST", "/v1/sessions",
		Config{ID: "ov1", Cell: "cell0", Workload: "vca"}); rr.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rr.Code, body)
	}
	in := synthFeedTB(40)
	if rr, body := do(t, h, "POST", "/v1/sessions/ov1/records", Batch{
		Sender: in.Sender, Core: in.Core, TBs: in.TBs,
		AdvanceTo: in.Sender[len(in.Sender)-1].LocalTime + 30*time.Second,
	}); rr.Code != http.StatusOK {
		t.Fatalf("feed: %d %s", rr.Code, body)
	}
	rr, body := do(t, h, "DELETE", "/v1/sessions/ov1", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("close: %d %s", rr.Code, body)
	}
	var final Status
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.Attribution.Packets == 0 || len(final.Attribution.TotalNS) == 0 {
		t.Fatalf("final status carries no integer totals: %+v", final.Attribution)
	}

	rr, body = do(t, h, "GET", "/v1/overview", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("overview: %d %s", rr.Code, body)
	}
	var ov Overview
	if err := json.Unmarshal(body, &ov); err != nil {
		t.Fatal(err)
	}
	if ov.Packets != int64(final.Attribution.Packets) {
		t.Fatalf("overview packets %d != session %d", ov.Packets, final.Attribution.Packets)
	}
	for c, ns := range final.Attribution.TotalNS {
		if ov.TotalNS[c] != ns {
			t.Fatalf("overview %s: %d != session %d", c, ov.TotalNS[c], ns)
		}
	}
	if ov.Events == nil || ov.Events.Emitted == 0 {
		t.Fatal("overview carries no event accounting")
	}
	if ov.Cells["cell0"].Packets != ov.Packets || ov.Families["vca"].Packets != ov.Packets {
		t.Fatalf("dimension bins incomplete: %+v / %+v", ov.Cells, ov.Families)
	}

	// Cursor pagination: page of 1, then the rest, then caught-up.
	rr, body = do(t, h, "GET", "/v1/events?max=1", nil)
	var page EventsResponse
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Type != "session.create" {
		t.Fatalf("first page %+v", page)
	}
	rr, body = do(t, h, "GET", "/v1/events?since="+strconv.FormatUint(page.Next, 10), nil)
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Type != "session.close" {
		t.Fatalf("second page %+v", page)
	}
	rr, body = do(t, h, "GET", "/v1/events?since="+strconv.FormatUint(page.Next, 10), nil)
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Stats.Emitted != 2 {
		t.Fatalf("caught-up page %+v", page)
	}

	// Long-poll: a waiting GET returns as soon as an event is emitted.
	caughtUp := page.Next
	got := make(chan EventsResponse, 1)
	go func() {
		_, body := do(t, h, "GET",
			"/v1/events?wait=10s&since="+strconv.FormatUint(caughtUp, 10), nil)
		var r EventsResponse
		json.Unmarshal(body, &r)
		got <- r
	}()
	time.Sleep(20 * time.Millisecond) // let the poller block
	if rr, body := do(t, h, "POST", "/v1/sessions", Config{ID: "ov2"}); rr.Code != http.StatusCreated {
		t.Fatalf("create ov2: %d %s", rr.Code, body)
	}
	select {
	case r := <-got:
		if len(r.Events) != 1 || r.Events[0].Type != "session.create" || r.Events[0].Session != "ov2" {
			t.Fatalf("long-poll woke with %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	// SSE: the same stream as data: frames.
	req := httptest.NewRequest("GET", "/v1/events?wait=50ms", nil)
	req.Header.Set("Accept", "text/event-stream")
	sr := httptest.NewRecorder()
	h.ServeHTTP(sr, req)
	if ct := sr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var frames int
	for _, line := range strings.Split(sr.Body.String(), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		frames++
		var e obs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("SSE frame not JSON: %v in %q", err, line)
		}
	}
	if frames != 3 {
		t.Fatalf("SSE delivered %d frames, want 3:\n%s", frames, sr.Body.String())
	}

	// Malformed cursor parameters are 400s, not 500s.
	if rr, _ := do(t, h, "GET", "/v1/events?since=notanumber", nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad since: %d", rr.Code)
	}
	if rr, _ := do(t, h, "GET", "/v1/events?wait=bogus", nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad wait: %d", rr.Code)
	}
}

// TestEventsSSESlowConsumer pins what an SSE subscriber that stops
// reading can cost: its own connection and nothing else. While it
// stalls, sessions churn far more events than the ring holds; every
// create/feed/close (and the Emit inside each) stays prompt, the stalled
// handler is released when its wait window closes rather than when the
// kernel gives up on the socket, and a second client that does read is
// told exactly how many events the ring dropped.
func TestEventsSSESlowConsumer(t *testing.T) {
	const ring, window = 64, time.Second
	reg := NewRegistry()
	reg.Events = obs.NewEventLog(ring)
	h := reg.Handler()
	sseHeld := make(chan time.Duration, 2) // one send per SSE request below
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/events" {
			sseHeld <- time.Since(start)
		}
	}))
	srv.Listener = smallSendBuf{srv.Listener}
	srv.Start()
	defer srv.Close()

	// With both kernel buffers small the server's Write blocks after
	// kilobytes instead of after the megabytes loopback autotunes to.
	stalled, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := stalled.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(stalled, "GET /v1/events?wait=%s HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n", window); err != nil {
		t.Fatal(err)
	}

	in := synthFeedTB(20)
	stop, churned := make(chan struct{}), make(chan struct{})
	var rounds int
	var slowest time.Duration
	go func() {
		defer close(churned)
		for ; ; rounds++ {
			select {
			case <-stop:
				return
			default:
			}
			start, id := time.Now(), fmt.Sprintf("churn%d", rounds)
			s, err := reg.Create(Config{ID: id})
			if err == nil {
				_, err = s.Feed(&Batch{Sender: in.Sender, Core: in.Core, TBs: in.TBs, AdvanceTo: time.Minute})
			}
			if err == nil {
				_, err = reg.Close(id)
			}
			if err != nil {
				t.Errorf("churn %s: %v", id, err)
				return
			}
			slowest = max(slowest, time.Since(start))
		}
	}()
	select {
	case held := <-sseHeld:
		t.Logf("stalled client released after %v", held)
	case <-time.After(window + 3*time.Second):
		t.Errorf("stalled SSE client still pins its handler %v after a %v window", window+3*time.Second, window)
	}
	close(stop)
	<-churned
	if rounds == 0 || slowest > time.Second {
		t.Errorf("churn: %d rounds, slowest %v — feeds or Emit blocked behind the stalled client", rounds, slowest)
	}
	if t.Failed() {
		return
	}

	// The release must have been the write deadline cutting a blocked
	// Write short: a stream that ended on its own terms closes with the
	// chunked terminator, and then this test proved nothing.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	stalled.(*net.TCPConn).SetReadBuffer(1 << 20) // reopen the window, or the drain crawls
	if raw, _ := io.ReadAll(stalled); bytes.HasSuffix(raw, []byte("0\r\n\r\n")) {
		t.Fatalf("server never blocked on the stalled client (%d bytes sent, stream ended cleanly)", len(raw))
	}

	st := reg.Events.Stats()
	if st.Emitted <= ring {
		t.Fatalf("churn emitted %d events, not enough to overrun a ring of %d", st.Emitted, ring)
	}
	req, err := http.NewRequest("GET", srv.URL+"/v1/events?wait=100ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading client: stream did not end cleanly: %v", err)
	}
	<-sseHeld
	want := fmt.Sprintf("event: dropped\ndata: %d\n\n", st.Emitted-ring)
	if !bytes.HasPrefix(body, []byte(want)) {
		t.Fatalf("reading client's stream starts %q, want %q", body[:min(len(body), 2*len(want))], want)
	}
	if n := bytes.Count(body, []byte("\ndata: {")); n != ring {
		t.Fatalf("reading client got %d event frames after the gap, want the ring's %d", n, ring)
	}
}

// smallSendBuf caps each accepted connection's kernel send buffer.
type smallSendBuf struct{ net.Listener }

func (l smallSendBuf) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// Without an event log configured the endpoints degrade gracefully: the
// nil-receiver-safe EventLog yields empty pages, never a panic.
func TestAPIEventsWithoutLog(t *testing.T) {
	reg := NewRegistry()
	h := reg.Handler()
	rr, body := do(t, h, "GET", "/v1/events", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("events without log: %d", rr.Code)
	}
	var page EventsResponse
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Next != 0 {
		t.Fatalf("nil-log page %+v", page)
	}

	// A wait on the nil log sleeps until its deadline (it used to spin on
	// an always-ready channel) and still ends on time, empty, both ways.
	for _, accept := range []string{"application/json", "text/event-stream"} {
		req := httptest.NewRequest("GET", "/v1/events?wait=300ms", nil)
		req.Header.Set("Accept", accept)
		rr := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rr, req)
		if held := time.Since(start); held < 300*time.Millisecond || held > 2*time.Second {
			t.Fatalf("%s wait=300ms on a nil log held %v", accept, held)
		}
		if rr.Code != http.StatusOK || strings.Contains(rr.Body.String(), "data:") {
			t.Fatalf("%s nil-log wait: %d %q", accept, rr.Code, rr.Body.String())
		}
	}
}

// TestAPIBatchJSONRoundTrip pins the wire format: a Batch survives an
// encode/decode cycle bit-for-bit, so captures can be shipped to a remote
// server without loss.
func TestAPIBatchJSONRoundTrip(t *testing.T) {
	in := synthFeed(3)
	b := Batch{Sender: in.Sender, Core: in.Core, AdvanceTo: time.Second}
	enc, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var dec Batch
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", dec) != fmt.Sprintf("%+v", b) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", dec, b)
	}
}
