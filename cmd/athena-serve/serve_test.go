package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"athena/internal/obs"
	"athena/internal/session"
)

// TestLoadgenEndToEndSharded runs the full load-generator path against
// an in-process server with a sharded multi-cell source topology: every
// replicated session's streamed attribution must digest-match the
// offline batch correlation of the same feed, over real HTTP.
func TestLoadgenEndToEndSharded(t *testing.T) {
	p := loadgenParams{
		Sessions: 6,
		UEs:      3,
		Cells:    2,
		Duration: 2 * time.Second,
		Tick:     100 * time.Millisecond,
		Seed:     1,
		Workers:  4,
	}
	res, err := runLoadgen(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InProcess {
		t.Fatal("expected an in-process server")
	}
	if res.Streams != 3 {
		t.Fatalf("tapped %d streams, want 3", res.Streams)
	}
	if res.Sessions != p.Sessions {
		t.Fatalf("digest matches %d, want %d", res.Sessions, p.Sessions)
	}
	if res.Records == 0 {
		t.Fatalf("nothing was fed: %+v", res)
	}
	// Fleet verification ran against the in-process server: overview
	// totals matched the session sums exactly, the Prometheus exposition
	// linted, and every created session's close event was seen.
	if res.OverviewPackets == 0 {
		t.Fatalf("overview verification did not run: %+v", res)
	}
	if res.PromFamilies == 0 {
		t.Fatal("no Prometheus families scraped")
	}
	if res.EventsCreates != int64(p.Sessions) || res.EventsCloses != int64(p.Sessions) {
		t.Fatalf("event stream saw %d/%d create/close for %d sessions",
			res.EventsCreates, res.EventsCloses, p.Sessions)
	}
}

// TestLoadgenMixedWorkloads replays a mixed-workload source topology —
// one UE per app family — through the service: SessionStreams and the
// streamed-vs-offline digest check are workload-agnostic, so every
// family's session must verify over real HTTP exactly like VCA.
func TestLoadgenMixedWorkloads(t *testing.T) {
	p := loadgenParams{
		Sessions:  4,
		UEs:       4,
		Workloads: "mixed",
		Duration:  2 * time.Second,
		Tick:      100 * time.Millisecond,
		Seed:      1,
		Workers:   2,
	}
	res, err := runLoadgen(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 4 {
		t.Fatalf("tapped %d streams, want 4", res.Streams)
	}
	if res.Sessions != p.Sessions {
		t.Fatalf("digest matches %d, want %d", res.Sessions, p.Sessions)
	}

	if _, err := buildWork(loadgenParams{UEs: 1, Workloads: "bogus", Duration: time.Second, Tick: time.Second}); err == nil {
		t.Fatal("unknown -workloads value must be rejected")
	}
}

// TestLoadgenDetectsCorruption pins the nonzero-exit contract: a feed
// that violates the session's stream order must fail the run, not pass
// silently.
func TestLoadgenDetectsCorruption(t *testing.T) {
	p := loadgenParams{Sessions: 1, UEs: 1, Duration: time.Second, Tick: 50 * time.Millisecond, Seed: 1}
	work, err := buildWork(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(work[0].chunks) < 2 {
		t.Fatal("need at least two chunks")
	}
	// Swap the first two chunks: sender records now arrive out of order.
	work[0].chunks[0], work[0].chunks[1] = work[0].chunks[1], work[0].chunks[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: session.NewRegistry().Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	_, err = runSession(http.DefaultClient, "http://"+ln.Addr().String(), "corrupt", &work[0])
	if err == nil {
		t.Fatal("out-of-order replay passed verification")
	}
}

// TestSessionDigestsUnchangedByFleetObservability pins digest
// neutrality: the same session stream produces bit-identical attribution
// digests whether it feeds a bare registry or one with rollups, a live
// event log, metrics collection, and an aggressive anomaly bound all
// enabled. Observability must observe, never perturb.
func TestSessionDigestsUnchangedByFleetObservability(t *testing.T) {
	work, err := buildWork(loadgenParams{
		Sessions: 1, UEs: 2, Cells: 2, Duration: 2 * time.Second,
		Tick: 100 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(reg *session.Registry) []session.Status {
		t.Helper()
		var out []session.Status
		for _, sw := range work {
			cfg := sw.cfg
			cfg.ID = "n-" + sw.id
			s, err := reg.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range sw.chunks {
				var b session.Batch
				if err := json.Unmarshal(enc, &b); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Feed(&b); err != nil {
					t.Fatal(err)
				}
			}
			st, err := reg.Close(cfg.ID)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}

	bare := run(session.NewRegistry())

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetAll()
	}()
	instrumented := session.NewRegistry()
	instrumented.Events = obs.NewEventLog(256)
	// A 1 ns bound guarantees the anomaly path actually fires on any
	// stream with HARQ-attributed delay.
	instrumented.AnomalyHARQP99 = 1
	instr := run(instrumented)

	if len(bare) != len(instr) || len(bare) == 0 {
		t.Fatalf("session counts diverge: %d vs %d", len(bare), len(instr))
	}
	for i := range bare {
		if bare[i].Digest != instr[i].Digest {
			t.Fatalf("session %s: digest %s (bare) != %s (instrumented)",
				bare[i].ID, bare[i].Digest, instr[i].Digest)
		}
		if bare[i].DigestViews != instr[i].DigestViews {
			t.Fatalf("session %s: %d vs %d digested views", bare[i].ID, bare[i].DigestViews, instr[i].DigestViews)
		}
		if bare[i].Attribution.Packets == 0 {
			t.Fatalf("session %s attributed nothing; neutrality check is vacuous", bare[i].ID)
		}
	}

	// The instrumented run must actually have observed something, or the
	// comparison proves nothing.
	st := instrumented.Events.Stats()
	if st.Emitted == 0 {
		t.Fatal("instrumented run emitted no events")
	}
	evs, _, _ := instrumented.Events.Since(0, 0)
	var sawAnomaly bool
	for _, e := range evs {
		if e.Type == "session.anomaly" {
			sawAnomaly = true
		}
	}
	if !sawAnomaly {
		t.Fatal("1ns anomaly bound never fired; the anomaly path went unexercised")
	}
	if ov := instrumented.Overview(); ov.Packets == 0 {
		t.Fatal("instrumented rollup folded nothing")
	}
}

// TestServeGracefulDrain exercises the server's shutdown path: cancel
// the serve context while a session still has pending packets and the
// server must flush it through the horizon before exiting.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := session.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var drained int
	var serveErr error
	go func() {
		defer close(done)
		drained, serveErr = serve(ctx, ln, reg)
	}()
	target := "http://" + ln.Addr().String()

	// Wait for the listener to answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := doJSON(http.DefaultClient, "GET", target+"/healthz", nil, http.StatusOK, nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One session with records but no clock advance: everything pending.
	work, err := buildWork(loadgenParams{Sessions: 1, UEs: 1, Duration: time.Second, Tick: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := work[0].cfg
	cfg.ID = "draintest"
	if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions", mustEncode(cfg), http.StatusCreated, nil); err != nil {
		t.Fatal(err)
	}
	var ch struct {
		Sender json.RawMessage `json:"sender"`
		Core   json.RawMessage `json:"core"`
	}
	if err := json.Unmarshal(work[0].chunks[0], &ch); err != nil {
		t.Fatal(err)
	}
	var fr session.FeedResponse
	if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions/draintest/records",
		mustEncode(map[string]json.RawMessage{"sender": ch.Sender, "core": ch.Core}),
		http.StatusOK, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Feed.Pending == 0 {
		t.Fatal("expected pending packets before shutdown")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if drained != 1 {
		t.Fatalf("drained %d sessions, want 1", drained)
	}
}

// TestServeDropsStalledClient pins the read bounds: a client that sends
// half a request line and stalls is disconnected within
// readHeaderTimeout, while a well-behaved feeder on another connection
// keeps getting 200s throughout.
func TestServeDropsStalledClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := session.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := serve(ctx, ln, reg)
		done <- err
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	target := "http://" + ln.Addr().String()
	if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions",
		mustEncode(session.Config{ID: "steady"}), http.StatusCreated, nil); err != nil {
		t.Fatal(err)
	}

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("POST /v1/sess")); err != nil {
		t.Fatal(err)
	}
	// The server closing the connection ends this read; the bound plus
	// slack is the test's own deadline.
	dropped := make(chan error, 1)
	start := time.Now()
	go func() {
		slow.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
		_, err := io.Copy(io.Discard, slow)
		dropped <- err
	}()

	feeds := 0
	for clock := int64(1); ; clock++ {
		if err := doJSON(http.DefaultClient, "POST", target+"/v1/sessions/steady/records",
			mustEncode(map[string]int64{"advance_to_ns": clock}), http.StatusOK, nil); err != nil {
			t.Fatalf("well-behaved feed %d while a slow client stalls: %v", feeds, err)
		}
		feeds++
		select {
		case err := <-dropped:
			if err != nil {
				t.Fatalf("stalled client still connected %v after its first byte: %v", time.Since(start), err)
			}
			if waited := time.Since(start); waited < readHeaderTimeout/2 {
				t.Fatalf("stalled client dropped after %v, before the %v bound could have fired", waited, readHeaderTimeout)
			}
			t.Logf("stalled client dropped after %v; %d feeds answered 200 meanwhile", time.Since(start), feeds)
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}
