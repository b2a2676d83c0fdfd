package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/scenario"
	"athena/internal/session"
)

// loadgenParams configures one load-generation run.
type loadgenParams struct {
	Target    string // server URL; empty starts an in-process server
	Sessions  int
	UEs       int
	Cells     int
	Workloads string // "vca" (default) or "mixed": source-topology app families
	Duration  time.Duration
	Tick      time.Duration
	Seed      int64
	Workers   int
}

// loadgenResult is what a verified run established. Every session it
// counts digest-matched; a mismatch is an error, not a smaller count.
type loadgenResult struct {
	InProcess bool
	Streams   int   // session streams tapped from the source topology
	Sessions  int   // sessions replayed, each ≡ core.Correlate by digest
	Records   int64 // records fed across all sessions

	// Fleet cross-check (in-process targets only): /v1/overview equalled
	// the sessions' summed attribution over this many packets, /metrics
	// linted with this many families, /v1/events showed these counts.
	OverviewPackets             int64
	PromFamilies                int
	EventsCreates, EventsCloses int64
}

// streamWork is one tapped session stream prepared for replication: the
// session config (capture slices stripped), the pre-encoded feed
// batches, and the offline reference digest every replica must match.
// Pre-encoding pays the JSON cost once per stream instead of once per
// session.
type streamWork struct {
	id         string
	cfg        session.Config
	chunks     [][]byte
	records    int64
	wantDigest string
}

// buildWork runs the source topology and taps its session streams.
func buildWork(p loadgenParams) ([]streamWork, error) {
	var top scenario.Topology
	if p.Cells > 1 {
		top = scenario.NewMultiCellTopology(p.UEs, p.Cells)
	} else {
		top = scenario.NewTopology(p.UEs)
	}
	top.Seed = p.Seed
	top.Duration = p.Duration
	switch p.Workloads {
	case "", "vca":
		// Historical default: every UE runs the VCA endpoint.
	case "mixed":
		top.MixWorkloads()
	default:
		return nil, fmt.Errorf("unknown -workloads %q (want vca or mixed)", p.Workloads)
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	tr := scenario.RunTopology(top)

	streams := tr.SessionStreams()
	if len(streams) == 0 {
		return nil, fmt.Errorf("topology produced no session streams")
	}
	work := make([]streamWork, len(streams))
	for i := range streams {
		ss := &streams[i]
		w := &work[i]
		w.id = ss.ID
		w.wantDigest = core.Correlate(ss.Input).PacketsDigest()
		w.cfg = session.Config{
			Input:    ss.Input,
			Cell:     fmt.Sprintf("cell%d", ss.Cell),
			Workload: string(ss.Workload),
		}
		w.cfg.Input.Sender, w.cfg.Input.Core, w.cfg.Input.TBs = nil, nil, nil
		for _, ch := range ss.Chunks(p.Tick) {
			enc, err := json.Marshal(session.Batch{
				Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo,
			})
			if err != nil {
				return nil, fmt.Errorf("encode %s chunk: %w", ss.ID, err)
			}
			w.chunks = append(w.chunks, enc)
			w.records += int64(len(ch.Sender) + len(ch.Core) + len(ch.TBs))
		}
	}
	return work, nil
}

// runLoadgen replays the tapped streams into the target server across
// p.Sessions independent sessions and verifies every session's digest
// against its stream's offline correlation. Any feed error or digest
// mismatch fails the run.
func runLoadgen(p loadgenParams) (*loadgenResult, error) {
	if p.Sessions <= 0 {
		p.Sessions = 1
	}
	if p.Workers <= 0 {
		p.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if p.Workers > p.Sessions {
		p.Workers = p.Sessions
	}

	work, err := buildWork(p)
	if err != nil {
		return nil, err
	}

	target, inproc := p.Target, false
	if target == "" {
		inproc = true
		obs.Enable()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		reg := session.NewRegistry()
		reg.Events = obs.NewEventLog(obs.DefaultEventBuffer)
		reg.AnomalyHARQP99 = 50 * time.Millisecond
		srv := &http.Server{Handler: reg.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		target = "http://" + ln.Addr().String()
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * p.Workers,
		MaxIdleConnsPerHost: 2 * p.Workers,
	}}

	// Workers stride the session index space; each session is created,
	// fed chunk by chunk, digest-verified and deleted before the worker
	// moves on, so up to p.Workers sessions are live at once.
	finals := make([][]session.Status, p.Workers)
	errs := make([]error, p.Workers)
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < p.Sessions; i += p.Workers {
				sw := &work[i%len(work)]
				id := fmt.Sprintf("lg-%04d-%s", i, sw.id)
				st, err := runSession(client, target, id, sw)
				if err != nil {
					errs[w] = fmt.Errorf("session %s: %w", id, err)
					return
				}
				finals[w] = append(finals[w], st)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &loadgenResult{InProcess: inproc, Streams: len(work), Sessions: p.Sessions}
	for i := 0; i < p.Sessions; i++ {
		res.Records += work[i%len(work)].records
	}

	// Fleet verification only makes sense against a server this run owns
	// exclusively: a shared external target carries other tenants'
	// sessions in its rollup and event stream.
	if inproc {
		if err := verifyFleet(client, target, finals, res); err != nil {
			return nil, fmt.Errorf("fleet verification: %w", err)
		}
	}
	return res, nil
}

// runSession drives one session through its full lifecycle and returns
// the final (post-close) status for fleet-level verification.
func runSession(c *http.Client, target, id string, sw *streamWork) (session.Status, error) {
	cfg := sw.cfg
	cfg.ID = id
	var st session.Status
	if err := doJSON(c, "POST", target+"/v1/sessions", mustEncode(cfg), http.StatusCreated, &st); err != nil {
		return st, fmt.Errorf("create: %w", err)
	}
	var fr session.FeedResponse
	for i, enc := range sw.chunks {
		if err := doJSON(c, "POST", target+"/v1/sessions/"+id+"/records", enc, http.StatusOK, &fr); err != nil {
			return st, fmt.Errorf("feed chunk %d: %w", i, err)
		}
	}
	if err := doJSON(c, "GET", target+"/v1/sessions/"+id+"/attribution", nil, http.StatusOK, &st); err != nil {
		return st, fmt.Errorf("query: %w", err)
	}
	if st.Feed.Pending != 0 {
		return st, fmt.Errorf("replay left %d packets pending", st.Feed.Pending)
	}
	if st.Digest != sw.wantDigest {
		return st, fmt.Errorf("digest mismatch: streamed %s, offline %s", st.Digest, sw.wantDigest)
	}
	if err := doJSON(c, "DELETE", target+"/v1/sessions/"+id, nil, http.StatusOK, &st); err != nil {
		return st, fmt.Errorf("close: %w", err)
	}
	return st, nil
}

// verifyFleet cross-checks the server's fleet observability against the
// ground truth this loadgen run holds: the sum of every session's final
// integer attribution totals. Three independent surfaces must agree —
// the /v1/overview rollup (exactly, integer for integer), the /metrics
// Prometheus exposition (lints and round-trips the feed histogram
// against the JSON snapshot), and the /v1/events stream (every create
// paired with a close).
func verifyFleet(c *http.Client, target string, finals [][]session.Status, res *loadgenResult) error {
	var wantPackets int64
	wantNS := make(map[core.Cause]int64)
	var sessions int64
	for _, fs := range finals {
		for _, st := range fs {
			sessions++
			wantPackets += int64(st.Attribution.Packets)
			for cause, ns := range st.Attribution.TotalNS {
				wantNS[cause] += ns
			}
		}
	}

	var ov session.Overview
	if err := doJSON(c, "GET", target+"/v1/overview", nil, http.StatusOK, &ov); err != nil {
		return fmt.Errorf("overview: %w", err)
	}
	if ov.Packets != wantPackets {
		return fmt.Errorf("overview packets %d != session sum %d", ov.Packets, wantPackets)
	}
	for cause, ns := range wantNS {
		if ov.TotalNS[cause] != ns {
			return fmt.Errorf("overview %s: %d ns != session sum %d ns", cause, ov.TotalNS[cause], ns)
		}
		if ov.TotalMS[cause] != float64(ns)/1e6 {
			return fmt.Errorf("overview %s: ms %v is not the exact rendering of %d ns", cause, ov.TotalMS[cause], ns)
		}
	}
	res.OverviewPackets = ov.Packets

	// Prometheus exposition: lint, then round-trip the feed histogram
	// against the JSON snapshot of the same registry. All sessions are
	// closed, so serve.http.feed_ns is quiescent between the two scrapes.
	resp, err := c.Get(target + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		return fmt.Errorf("/metrics content type %q", ct)
	}
	page, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("exposition does not lint: %w", err)
	}
	res.PromFamilies = len(page.Families)
	var snap obs.Snapshot
	if err := doJSON(c, "GET", target+"/metrics/json", nil, http.StatusOK, &snap); err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	want := snap.Histograms["serve.http.feed_ns"]
	fam := page.Families[obs.PromName("serve.http.feed_ns")]
	if fam == nil {
		return fmt.Errorf("serve.http.feed_ns missing from exposition")
	}
	_, sum, count, err := fam.HistogramCounts()
	if err != nil {
		return fmt.Errorf("feed histogram: %w", err)
	}
	if count != want.Count || sum != float64(want.Sum) {
		return fmt.Errorf("feed histogram count/sum %d/%v != snapshot %d/%d",
			count, sum, want.Count, want.Sum)
	}

	// Event stream: paginate from zero and pair every create with a
	// close. An overrun ring (dropped > 0) makes counting unsound, so the
	// pairing is only asserted when nothing fell off.
	var since uint64
	var dropped int64
	var creates, closes int64
	for {
		var pageResp session.EventsResponse
		url := fmt.Sprintf("%s/v1/events?since=%d&max=500", target, since)
		if err := doJSON(c, "GET", url, nil, http.StatusOK, &pageResp); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		dropped += pageResp.Dropped
		var last uint64
		for _, e := range pageResp.Events {
			if e.Seq <= last && last != 0 {
				return fmt.Errorf("event seqs not monotonic: %d after %d", e.Seq, last)
			}
			last = e.Seq
			switch e.Type {
			case "session.create":
				creates++
			case "session.close":
				closes++
			}
		}
		if len(pageResp.Events) == 0 {
			break
		}
		since = pageResp.Next
	}
	res.EventsCreates, res.EventsCloses = creates, closes
	if dropped == 0 && (creates != sessions || closes != sessions) {
		return fmt.Errorf("event stream saw %d creates / %d closes for %d sessions",
			creates, closes, sessions)
	}
	return nil
}

// doJSON round-trips one API call, decoding the reply into out when the
// status matches and the error envelope when it does not.
func doJSON(c *http.Client, method, url string, body []byte, want int, out any) error {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var eb struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("%s %s: %d (want %d): %s", method, url, resp.StatusCode, want, eb.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func mustEncode(v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return enc
}
