package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/scenario"
	"athena/internal/session"
)

// foldDigests folds a list of digests into one string for printing.
func foldDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// serveWorkload drives the real athena-serve binary over loopback TCP
// with simulator-tapped VCA streams, pre-encoded at one batching tick.
// Phase A is a closed loop (nproc connections, each running whole
// sessions create → feed → query → delete back to back): capacity.
// Phase B is an open loop (batches due at a fixed rate over `slots`
// concurrently live sessions, each POST timed from when it was due):
// latency, as independent cell-site taps would see it. Every session's
// streamed digest must equal the offline correlation of its feed.
//
// unit = one record ingested (phase A); op = one phase-B POST.
//
// The server receives only generated inputs — session configs and
// encoded batches — never the seed or the workload name.
type serveWorkload struct {
	tick   time.Duration
	child  *serveChild
	client *http.Client
	work   []streamWork
}

// streamWork is one tapped stream prepared for replay: its session
// config (captures stripped), its batches encoded once, and the offline
// digest every replay must reproduce.
type streamWork struct {
	id      string
	cfg     session.Config
	chunks  [][]byte
	records []int // per chunk
	total   int   // records over all chunks
	want    string
}

func (w *serveWorkload) rate(sz sizes) float64 {
	if w.tick == tick10 {
		return sz.rate10
	}
	return sz.rate100
}

func (w *serveWorkload) params(sz sizes) string {
	return fmt.Sprintf("source=%d vca ues/%d cells/%v tick=%v closed_loop_conns=%d open_loop_rate=%g/s open_loop_sessions=%d transport=loopback-tcp",
		sz.serveUEs, sz.serveCells, sz.serveDur, w.tick, runtime.NumCPU(), w.rate(sz), sz.slots)
}

// prepare builds the child binary, once per run and outside setup_s.
func (w *serveWorkload) prepare(c *runCtx) error {
	c.serveBinary = filepath.Join(c.outDir, "athena-serve")
	cmd := exec.Command("go", "build", "-o", c.serveBinary, "./cmd/athena-serve")
	cmd.Dir = c.root
	t0 := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/athena-serve: %w\n%s", err, out)
	}
	c.buildS = time.Since(t0).Seconds()
	return nil
}

func (w *serveWorkload) setup(c *runCtx) error {
	child, err := startServe(c.serveBinary)
	if err != nil {
		return err
	}
	w.child = child
	conns := runtime.NumCPU()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}}

	tr := scenario.RunTopology(multiCell(c.seed, c.sz.serveUEs, c.sz.serveCells, 0, c.sz.serveDur))
	streams := tr.SessionStreams()
	if len(streams) == 0 {
		return fmt.Errorf("topology produced no session streams")
	}
	for i := range streams {
		ss := &streams[i]
		sw := streamWork{id: ss.ID, want: core.Correlate(ss.Input).PacketsDigest()}
		// The streaming estimator can diverge from the offline one at HEAD
		// (README.md, "Known divergences"); two UEs per cell keeps that
		// from happening on any seed tried. Should a seed still produce
		// such a stream, it is left out: this workload checks the server
		// against the estimator, not the estimator's twins against each
		// other.
		if d, err := liveDigest(obs.Span{}, ss, w.tick); err != nil || d != sw.want {
			c.note("note: stream %s left out, streamed != offline in-process (err=%v)", ss.ID, err)
			continue
		}
		sw.cfg = session.Config{Input: ss.Input, Cell: fmt.Sprintf("cell%d", ss.Cell), Workload: string(ss.Workload)}
		sw.cfg.Input.Sender, sw.cfg.Input.Core, sw.cfg.Input.TBs = nil, nil, nil
		for _, ch := range ss.Chunks(w.tick) {
			enc, err := json.Marshal(session.Batch{Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo})
			if err != nil {
				return fmt.Errorf("encode %s chunk: %w", ss.ID, err)
			}
			n := len(ch.Sender) + len(ch.Core) + len(ch.TBs)
			sw.chunks = append(sw.chunks, enc)
			sw.records = append(sw.records, n)
			sw.total += n
		}
		w.work = append(w.work, sw)
	}
	if len(w.work) == 0 {
		return fmt.Errorf("no tapped stream replays to its offline digest")
	}
	// Warm-up: one whole session over HTTP, so connections, the server's
	// heap and its lazily registered metrics exist before timing.
	_, err = w.runSession(obs.Span{}, "warmup", &w.work[0])
	return err
}

func (w *serveWorkload) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.child != nil {
		w.child.stop()
		w.child = nil
	}
}

// serveChild is a running athena-serve process.
type serveChild struct {
	cmd    *exec.Cmd
	url    string
	logged chan struct{} // closed when the stderr reader has drained
}

// startServe starts the binary on an ephemeral loopback port and waits
// for its "listening on" line.
func startServe(bin string) (*serveChild, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serveChild{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.logged:
		cmd.Wait()
		return nil, fmt.Errorf("athena-serve exited before listening")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("athena-serve did not start listening within 20 s")
	}
}

// stop asks the server to drain and waits until the process has ended,
// killing it if the drain outlasts its own grace period.
func (s *serveChild) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.logged // Wait closes the pipe; read it out first
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// The spans around the client's API calls, one name per kind of call so
// the traced run can read each kind's latency off the tracer.
const (
	spanCreate = "http.POST_session"
	spanFeed   = "http.POST_records"
	spanStatus = "http.GET_attribution"
	spanClose  = "http.DELETE_session"
)

// call round-trips one API request under a span of the given name and
// returns the body when the status is the wanted one.
func (w *serveWorkload) call(parent obs.Span, span, method, path string, body []byte, want int) ([]byte, error) {
	sp := parent.Child(span)
	defer sp.End()
	req, err := http.NewRequest(method, w.child.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	return out, nil
}

func (w *serveWorkload) create(parent obs.Span, id string, sw *streamWork) error {
	cfg := sw.cfg
	cfg.ID = id
	enc, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	_, err = w.call(parent, spanCreate, "POST", "/v1/sessions", enc, http.StatusCreated)
	return err
}

// finish queries a fully fed session, checks nothing is pending and the
// digest is the offline one, and deletes it.
func (w *serveWorkload) finish(parent obs.Span, id string, sw *streamWork) error {
	body, err := w.call(parent, spanStatus, "GET", "/v1/sessions/"+id+"/attribution", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var st session.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if _, err := w.call(parent, spanClose, "DELETE", "/v1/sessions/"+id, nil, http.StatusOK); err != nil {
		return err
	}
	if st.Feed.Pending != 0 {
		return fmt.Errorf("replay left %d packets pending", st.Feed.Pending)
	}
	if st.Digest != sw.want {
		return fmt.Errorf("digest mismatch: streamed %s, offline %s", st.Digest, sw.want)
	}
	return nil
}

// feed posts one encoded batch to a session.
func (w *serveWorkload) feed(parent obs.Span, id string, enc []byte) error {
	_, err := w.call(parent, spanFeed, "POST", "/v1/sessions/"+id+"/records", enc, http.StatusOK)
	return err
}

// remove deletes a session without looking at it.
func (w *serveWorkload) remove(id string) error {
	_, err := w.call(obs.Span{}, spanClose, "DELETE", "/v1/sessions/"+id, nil, http.StatusOK)
	return err
}

// runSession drives one session through its whole lifecycle and returns
// the records it fed.
func (w *serveWorkload) runSession(parent obs.Span, id string, sw *streamWork) (int, error) {
	if err := w.create(parent, id, sw); err != nil {
		return 0, fmt.Errorf("create: %w", err)
	}
	for i, enc := range sw.chunks {
		if err := w.feed(parent, id, enc); err != nil {
			return 0, fmt.Errorf("feed chunk %d: %w", i, err)
		}
	}
	if err := w.finish(parent, id, sw); err != nil {
		return 0, err
	}
	return sw.total, nil
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	records  int
	wall     time.Duration
	childCPU time.Duration
}

// closedLoopWindows is how many equal windows the closed loop's run is
// cut into; its throughput is the median window's, so a burst of noise
// from a neighbour on the box costs one window, not the whole figure.
const closedLoopWindows = 8

// closedLoopResult adds the per-window throughput.
type closedLoopResult struct {
	phaseResult
	windowPerS []float64 // records/s of each window
}

// perS is the closed loop's throughput: the median window's, or the
// whole phase's when the phase was too short for its windows to hold a
// session each (toy sizes).
func (r closedLoopResult) perS() float64 {
	if m := median(r.windowPerS); m > 0 {
		return m
	}
	return float64(r.records) / r.wall.Seconds()
}

// windowRates buckets completions (offset from the start, records) into
// n equal windows over span and returns each window's records/s.
// Completions past the last window are left out.
func windowRates(at []time.Duration, records []int, span time.Duration, n int) []float64 {
	width := span / time.Duration(n)
	sums := make([]float64, n)
	for i, t := range at {
		if w := int(t / width); w < n {
			sums[w] += float64(records[i])
		}
	}
	for i := range sums {
		sums[i] /= width.Seconds()
	}
	return sums
}

// closedLoop runs whole sessions back to back on nproc connections
// until the budget is spent, every session digest-checked.
func (w *serveWorkload) closedLoop(c *runCtx, parent obs.Span, budget time.Duration) (closedLoopResult, error) {
	conns := runtime.NumCPU()
	cpu0, err := procCPU(w.child.cmd.Process.Pid)
	if err != nil {
		return closedLoopResult{}, err
	}
	var next atomic.Int64
	var mu sync.Mutex // guards the completion log
	var doneAt []time.Duration
	var doneRecords []int
	total := 0
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				i := int(next.Add(1) - 1)
				sw := &w.work[i%len(w.work)]
				id := fmt.Sprintf("a-%05d-%s", i, sw.id)
				n, err := w.runSession(parent, id, sw)
				c.check(err == nil, "closed-loop session %s: %v", id, err)
				mu.Lock()
				doneAt = append(doneAt, time.Since(start))
				doneRecords = append(doneRecords, n)
				total += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1, err := procCPU(w.child.cmd.Process.Pid)
	if err != nil {
		return closedLoopResult{}, err
	}
	return closedLoopResult{
		phaseResult: phaseResult{records: total, wall: wall, childCPU: cpu1 - cpu0},
		windowPerS:  windowRates(doneAt, doneRecords, budget, closedLoopWindows),
	}, nil
}

// openLoopResult adds the open loop's latency samples.
type openLoopResult struct {
	phaseResult
	latencyUS []float64 // completion − due time, per POST
	lateUS    []float64 // send − due time, per POST: how late the generator ran
}

// openLoop posts batches on a fixed schedule: batch k is due at k/rate,
// belongs to live-session slot k mod slots, and is that slot's next
// chunk. nproc senders take batches in due order; a batch is timed from
// its due time, so a stall shows up in every batch that waited behind
// it. Sessions are created before the schedule starts and, afterwards,
// fed to completion, digest-checked and deleted.
func (w *serveWorkload) openLoop(c *runCtx, parent obs.Span, budget time.Duration, rate float64) (openLoopResult, error) {
	slots := c.sz.slots
	total := int(rate * budget.Seconds())
	sched := schedule{slots: slots, interval: time.Duration(float64(time.Second) / rate)}
	perSlot := (total + slots - 1) / slots

	// Create every session the schedule will touch.
	type slotState struct {
		sw   *streamWork
		gens int          // sessions this slot gets through, one after the other
		done atomic.Int64 // batches of this slot completed
	}
	state := make([]slotState, slots)
	sp := parent.Child("bench.open_loop_create")
	for j := range state {
		state[j].sw = &w.work[j%len(w.work)]
		state[j].gens = (perSlot + len(state[j].sw.chunks) - 1) / len(state[j].sw.chunks)
		for g := 0; g < state[j].gens; g++ {
			if err := w.create(obs.Span{}, fmt.Sprintf("b-%d-%d", j, g), state[j].sw); err != nil {
				return openLoopResult{}, fmt.Errorf("open-loop create: %w", err)
			}
		}
	}
	sp.End()

	res := openLoopResult{latencyUS: make([]float64, total), lateUS: make([]float64, total)}
	cpu0, err := procCPU(w.child.cmd.Process.Pid)
	if err != nil {
		return res, err
	}
	var next, records atomic.Int64
	verify := func(id string, sw *streamWork) {
		err := w.finish(obs.Span{}, id, sw)
		c.check(err == nil, "open-loop session %s: %v", id, err)
	}
	// A session that has had its last batch is verified and deleted at
	// once by a reaper on a connection of its own, as a call that ended
	// would be, so the server holds `slots` fed sessions, not all of them.
	type ended struct {
		id string
		sw *streamWork
	}
	reap := make(chan ended, total) // a batch ends at most one session, so senders never block on it
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		for e := range reap {
			verify(e.id, e.sw)
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				slot, n := sched.slot(k)
				st := &state[slot]
				gen, chunk := n/len(st.sw.chunks), n%len(st.sw.chunks)
				due := start.Add(sched.due(k))
				time.Sleep(time.Until(due))
				// A session's batches must arrive in order: wait out a
				// predecessor still in flight on another sender.
				for st.done.Load() < int64(n) {
					time.Sleep(20 * time.Microsecond)
				}
				sent := time.Now()
				err := w.feed(parent, fmt.Sprintf("b-%d-%d", slot, gen), st.sw.chunks[chunk])
				latency, late := fromDue(due, sent, time.Now())
				res.latencyUS[k], res.lateUS[k] = us(latency), us(late)
				st.done.Add(1)
				if err != nil {
					c.check(false, "open-loop batch %d: %v", k, err)
					continue
				}
				records.Add(int64(st.sw.records[chunk]))
				if chunk == len(st.sw.chunks)-1 {
					reap <- ended{fmt.Sprintf("b-%d-%d", slot, gen), st.sw}
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	close(reap)
	<-reaped
	cpu1, err := procCPU(w.child.cmd.Process.Pid)
	if err != nil {
		return res, err
	}
	res.childCPU = cpu1 - cpu0
	res.records = int(records.Load())

	// Untimed: feed each slot's unfinished session to completion and
	// verify it; delete the sessions the schedule never reached.
	sp = parent.Child("bench.open_loop_drain")
	defer sp.End()
	for j := range state {
		st := &state[j]
		n := int(st.done.Load())
		for g := n / len(st.sw.chunks); g < st.gens; g++ {
			id := fmt.Sprintf("b-%d-%d", j, g)
			fed := n - g*len(st.sw.chunks)
			if fed <= 0 {
				if err := w.remove(id); err != nil {
					return res, err
				}
				continue
			}
			for ch := fed; ch < len(st.sw.chunks); ch++ {
				if err := w.feed(obs.Span{}, id, st.sw.chunks[ch]); err != nil {
					return res, fmt.Errorf("open-loop session %s: %w", id, err)
				}
			}
			verify(id, st.sw)
		}
	}
	return res, nil
}

func (w *serveWorkload) measure(c *runCtx) (int, error) {
	pid := w.child.cmd.Process.Pid
	a, err := w.closedLoop(c, c.span, c.budget*4/10)
	if err != nil {
		return pid, err
	}
	b, err := w.openLoop(c, c.span, c.budget*6/10, w.rate(c.sz))
	if err != nil {
		return pid, err
	}
	if a.records == 0 || b.records == 0 {
		return pid, fmt.Errorf("no records ingested (closed loop %d, open loop %d)", a.records, b.records)
	}
	c.set("units_per_s", a.perS())
	c.set("cpu_us_per_unit", us(a.childCPU+b.childCPU)/float64(a.records+b.records))
	c.set("op_p50_us", median(b.latencyUS))
	n := len(b.latencyUS)
	c.note("serve: closed loop %d conns %d records in %.3f s (median of %d windows; whole phase %.0f records/s); open loop %g batches/s over %d sessions, %d POSTs in %.3f s, p99 %.1f us (%d samples beyond), generator late p50 %.1f us p99 %.1f us",
		runtime.NumCPU(), a.records, a.wall.Seconds(), closedLoopWindows, float64(a.records)/a.wall.Seconds(), w.rate(c.sz), c.sz.slots, n, b.wall.Seconds(), quantile(b.latencyUS, 0.99), beyond(n, 0.99),
		median(b.lateUS), quantile(b.lateUS, 0.99))
	wants := make([]string, len(w.work))
	for i := range w.work {
		wants[i] = w.work[i].want
	}
	c.note("digest stream-packets %s", foldDigests(wants))
	return pid, nil
}

func (w *serveWorkload) layers(c *runCtx) error {
	c.set("bench.build_s", c.buildS)

	// Over HTTP, a quarter of the untraced phase sizes: first untraced
	// (the base of the tracing overhead), then traced.
	sp := c.span.Child("bench.untraced_baseline")
	base, err := w.closedLoop(c, obs.Span{}, c.budget/10)
	sp.End()
	if err != nil {
		return err
	}
	a, err := w.closedLoop(c, c.span, c.budget/10)
	if err != nil {
		return err
	}
	if base.records > 0 && a.records > 0 {
		c.set("bench.trace_overhead_frac", base.perS()/a.perS()-1)
	}
	// Read before the open loop adds its own feeds: phase A's client-side
	// latency per kind of call, off the tracer.
	phaseA := c.tracer.Snapshot()
	c.set("session.create_us", median(spanUS(phaseA, spanCreate)))
	c.set("session.close_us", median(spanUS(phaseA, spanClose)))
	postP50 := median(spanUS(phaseA, spanFeed))
	b, err := w.openLoop(c, c.span, c.budget*15/100, w.rate(c.sz))
	if err != nil {
		return err
	}
	c.set("bench.gen_late_p99_us", quantile(b.lateUS, 0.99))
	c.set("session.post_p99_us", quantile(b.latencyUS, 0.99))

	// In-process, no TCP: decode, feed and the handler alone.
	var decode time.Duration
	var kb float64
	batches := make([][]session.Batch, len(w.work))
	for i := range w.work {
		for _, enc := range w.work[i].chunks {
			var bt session.Batch
			var err error
			decode += c.timed("session.Decode", func() { err = json.Unmarshal(enc, &bt) })
			if err != nil {
				return fmt.Errorf("decode own batch: %w", err)
			}
			kb += float64(len(enc)) / 1024
			batches[i] = append(batches[i], bt)
		}
	}
	c.set("session.decode_ns_per_kb", float64(decode)/kb)

	reg := session.NewRegistry()
	var m0, m1 runtime.MemStats
	var feed time.Duration
	records := 0
	runtime.ReadMemStats(&m0)
	for i := range w.work {
		cfg := w.work[i].cfg
		cfg.ID = "feed-" + w.work[i].id
		var s *session.Session
		var err error
		c.timed("session.Create", func() { s, err = reg.Create(cfg) })
		if err != nil {
			return fmt.Errorf("in-process create: %w", err)
		}
		for j := range batches[i] {
			feed += c.timed("session.Feed", func() { _, err = s.Feed(&batches[i][j]) })
			if err != nil {
				return fmt.Errorf("in-process feed: %w", err)
			}
		}
		records += w.work[i].total
		st, err := reg.Close(cfg.ID)
		c.check(err == nil && st.Digest == w.work[i].want, "in-process session %s: err=%v digest %s, offline %s", cfg.ID, err, st.Digest, w.work[i].want)
	}
	runtime.ReadMemStats(&m1)
	c.set("session.feed_ns_per_record", float64(feed)/float64(records))
	c.set("session.feed_allocs_per_record", float64(m1.Mallocs-m0.Mallocs)/float64(records))
	c.set("session.feed_bytes_per_record", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(records))

	h := reg.Handler()
	var handlerUS []float64
	for i := range w.work {
		cfg := w.work[i].cfg
		cfg.ID = "h-" + w.work[i].id
		if _, err := reg.Create(cfg); err != nil {
			return fmt.Errorf("in-process create: %w", err)
		}
		for _, enc := range w.work[i].chunks {
			req := httptest.NewRequest("POST", "/v1/sessions/"+cfg.ID+"/records", bytes.NewReader(enc))
			rec := httptest.NewRecorder()
			handlerUS = append(handlerUS, us(c.timed("session.ServeHTTP", func() { h.ServeHTTP(rec, req) })))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body)
			}
		}
		if _, err := reg.Close(cfg.ID); err != nil {
			return err
		}
	}
	c.set("session.handler_us_per_batch", median(handlerUS))
	c.set("session.http_overhead_us_per_batch", postP50-median(handlerUS))

	// Fleet rows, with overviewLen sessions live on the child: status,
	// overview, the Prometheus page and the JSON snapshot.
	live := c.sz.overviewLen
	for i := 0; i < live; i++ {
		sw := &w.work[i%len(w.work)]
		id := fmt.Sprintf("live-%d", i)
		if err := w.create(obs.Span{}, id, sw); err != nil {
			return err
		}
		if err := w.feed(obs.Span{}, id, sw.chunks[0]); err != nil {
			return err
		}
	}
	timeGET := func(path string) (float64, int, error) {
		var ts []float64
		size := 0
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			body, err := w.call(c.span, "http.GET", "GET", path, nil, http.StatusOK)
			if err != nil {
				return 0, 0, err
			}
			ts = append(ts, us(time.Since(t0)))
			size = len(body)
		}
		return median(ts), size, nil
	}
	statusUS, _, err := timeGET("/v1/sessions/live-0/attribution")
	if err != nil {
		return err
	}
	c.set("session.status_us", statusUS)
	overviewUS, _, err := timeGET("/v1/overview")
	if err != nil {
		return err
	}
	c.set("session.overview_us", overviewUS)
	promUS, promBytes, err := timeGET("/metrics")
	if err != nil {
		return err
	}
	c.set("obs.prometheus_us_per_100_sessions", promUS*100/float64(live))
	jsonUS, _, err := timeGET("/metrics/json")
	if err != nil {
		return err
	}
	c.set("obs.metrics_json_us", jsonUS)

	// The child's own view of a feed, and what it turned away.
	body, err := w.call(c.span, "http.GET", "GET", "/metrics/json", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return err
	}
	fh := snap.Histograms["serve.http.feed_ns"]
	c.set("session.server_feed_p50_us", float64(fh.P50)/1e3)
	c.set("session.server_feed_p99_us", float64(fh.P99)/1e3)
	c.set("session.rejects", float64(snap.Counters["serve.http.errors"]))

	for i := 0; i < live; i++ {
		if err := w.remove(fmt.Sprintf("live-%d", i)); err != nil {
			return err
		}
	}
	// The per-session share of the page: scrape again with no session
	// live and attribute the difference.
	_, idleBytes, err := timeGET("/metrics")
	if err != nil {
		return err
	}
	c.set("obs.prometheus_bytes_per_session", float64(promBytes-idleBytes)/float64(live))
	c.note("serve traced: closed loop %d records, open loop %d POSTs, %d records", a.records, len(b.latencyUS), b.records)
	return nil
}
