package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
)

// BenchmarkRollupFold measures the rollup's share of one feed of ten
// attributed views: ten histogram observes and one fold — the exact cost
// rollups add to the ingest path. The Obs variant runs with collection
// enabled.
func benchRollupFold(b *testing.B, enabled bool) {
	if enabled {
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.ResetAll()
		}()
	}
	r := NewRollup()
	f := r.Bind("cell0", "vca")
	c := core.Components{1000, 2000, 3000, 4000, 500}
	var a core.Attribution
	for range 10 {
		a.Add(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range 10 {
			f.observe(c, true)
		}
		f.fold(a)
	}
}

func BenchmarkRollupFold(b *testing.B)    { benchRollupFold(b, false) }
func BenchmarkRollupFoldObs(b *testing.B) { benchRollupFold(b, true) }

// benchFeedInput is a pre-built 2k-packet resolvable stream shared by
// the feed benchmarks.
func benchFeedInput(n int) core.Input { return synthFeedTB(n) }

// BenchmarkSessionFeed measures the whole ingest path — correlation,
// digest, attribution accumulate, and the rollup fold — per packet.
func benchSessionFeed(b *testing.B, enabled bool) {
	if enabled {
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.ResetAll()
		}()
	}
	const n = 2000
	in := benchFeedInput(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := NewRegistry()
		reg.Events = obs.NewEventLog(1024)
		s, err := reg.Create(Config{ID: "bench", Cell: "cell0", Workload: "vca"})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		feedBenchStream(b, s, in)
		b.StopTimer()
		reg.CloseAll()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/packet")
}

// feedBenchStream is the measured section of the feed benchmarks: the
// stream delivered in 100-packet batches, each carrying the TBs due by its
// clock advance.
func feedBenchStream(tb testing.TB, s *Session, in core.Input) {
	ti := 0
	for j := 0; j < len(in.Sender); j += 100 {
		adv := in.Sender[j+99].LocalTime + 6*time.Millisecond
		batch := Batch{Sender: in.Sender[j : j+100], Core: in.Core[j : j+100], AdvanceTo: adv}
		for ti < len(in.TBs) && in.TBs[ti].At <= adv {
			batch.TBs = append(batch.TBs, in.TBs[ti])
			ti++
		}
		if _, err := s.Feed(&batch); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSessionFeedAllocsBounded pins what BenchmarkSessionFeed reports:
// the whole ingest path — correlation, digest, attribution, rollup fold —
// borrows each emitted view, so a 2000-packet stream costs buffer growth
// and batch assembly, not an allocation per packet (2253 before the
// borrow).
func TestSessionFeedAllocsBounded(t *testing.T) {
	const n, runs = 2000, 5
	in := benchFeedInput(n)
	reg := NewRegistry()
	reg.Events = obs.NewEventLog(1024)
	defer reg.CloseAll()
	// AllocsPerRun calls the function once to warm up, then runs times.
	sessions := make([]*Session, 0, runs+1)
	for i := 0; i <= runs; i++ {
		s, err := reg.Create(Config{ID: fmt.Sprintf("allocs%d", i), Cell: "cell0", Workload: "vca"})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		feedBenchStream(t, sessions[next], in)
		next++
	})
	if allocs > 300 {
		t.Fatalf("feeding %d packets allocates %.0f objects, want <= 300", n, allocs)
	}
	if st := sessions[0].Status(); st.Feed.Emitted == 0 || st.Attribution.Packets == 0 {
		t.Fatalf("measured feed emitted nothing: %+v", st)
	}
}

// TestHandlerFeedAllocsBounded pins the whole feed request — route, pooled
// body read, single-pass decode into the pooled Batch, Feed, response —
// for a tapped 100 ms batch (~75 records with its TBs, 5 allocations
// measured). The limit sits just above that, so a per-TB or per-record
// allocation in the decoder shows. Decoding alone cost ~38 per such
// request through encoding/json (1134 per 30), plus the three record
// slices grown from nil.
func TestHandlerFeedAllocsBounded(t *testing.T) {
	const runs = 100
	limit := 6.0
	if raceBuild() {
		// The race detector makes sync.Pool drop every fourth Put on
		// purpose, and the requests that regrow a scratch from nothing
		// lift the mean by ~10.
		limit = 21
	}
	bodies := loopedBatches(t, runs+1) // AllocsPerRun warms up with one extra call
	reg := NewRegistry()
	defer reg.CloseAll()
	h := reg.Handler()
	if _, err := reg.Create(Config{ID: "allocs", Input: realStream().Input}); err != nil {
		t.Fatal(err)
	}
	// Steady state first: the session window, the pooled scratch and the
	// mux have seen a whole call's traffic.
	warm := len(bodies) - (runs + 1)
	for _, enc := range bodies[:warm] {
		if rr := post(h, "/v1/sessions/allocs/records", enc); rr.Code != http.StatusOK {
			t.Fatalf("warm-up feed: %d %s", rr.Code, rr.Body)
		}
	}
	// One request value and one writer serve every run, so the count is
	// the handler's own.
	var rd bytes.Reader
	req := httptest.NewRequest("POST", "/v1/sessions/allocs/records", nil)
	w := &discardWriter{header: make(http.Header)}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		rd.Reset(bodies[next])
		next++
		req.Body = io.NopCloser(&rd)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("feed %d: %d", next, w.status)
		}
	})
	t.Logf("%.0f allocs per feed request", allocs)
	if allocs > limit {
		t.Fatalf("one feed request allocates %.0f objects, want <= %.0f", allocs, limit)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// loopedBatches extends the tapped stream to at least n batches past one
// whole warm-up call by replaying it back to back, each replay shifted
// past the previous one's final clock advance and its sequence numbers
// past the previous one's, so every batch is a valid continuation of the
// feed.
func loopedBatches(t *testing.T, n int) [][]byte {
	t.Helper()
	ss := realStream()
	chunks := ss.Chunks(100 * time.Millisecond)
	period := chunks[len(chunks)-1].AdvanceTo
	var span uint32
	for _, r := range ss.Input.Sender {
		span = max(span, r.Seq+1)
	}
	var out [][]byte
	for loop := 0; len(out) < n+len(chunks); loop++ {
		shift, seqs := time.Duration(loop)*period, uint32(loop)*span
		for _, ch := range chunks {
			b := Batch{AdvanceTo: ch.AdvanceTo + shift}
			for _, r := range ch.Sender {
				r.LocalTime += shift
				r.Seq += seqs
				b.Sender = append(b.Sender, r)
			}
			for _, r := range ch.Core {
				r.LocalTime += shift
				r.Seq += seqs
				b.Core = append(b.Core, r)
			}
			for _, r := range ch.TBs {
				r.At += shift
				b.TBs = append(b.TBs, r)
			}
			enc, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, enc)
		}
	}
	return out
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

func BenchmarkSessionFeed(b *testing.B)    { benchSessionFeed(b, false) }
func BenchmarkSessionFeedObs(b *testing.B) { benchSessionFeed(b, true) }

// BenchmarkWritePrometheus measures one full text exposition render of a
// fleet-sized registry: 100 sessions' worth of per-session metrics plus
// the rollup families.
func BenchmarkWritePrometheus(b *testing.B) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetAll()
	}()
	reg := NewRegistry()
	in := synthFeedTB(20)
	for i := 0; i < 100; i++ {
		id := "bench" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		s, err := reg.Create(Config{ID: id, Cell: "cell0", Workload: "vca"})
		if err != nil {
			b.Fatal(err)
		}
		feedAllBench(b, s, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverviewSnapshot measures one /v1/overview render.
func BenchmarkOverviewSnapshot(b *testing.B) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetAll()
	}()
	reg := NewRegistry()
	in := synthFeedTB(50)
	for _, cfg := range []Config{
		{ID: "ova", Cell: "cell0", Workload: "vca"},
		{ID: "ovb", Cell: "cell1", Workload: "bulk-transfer"},
	} {
		s, err := reg.Create(cfg)
		if err != nil {
			b.Fatal(err)
		}
		feedAllBench(b, s, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = reg.Overview()
	}
}

func feedAllBench(b *testing.B, s *Session, in core.Input) {
	b.Helper()
	last := in.Sender[len(in.Sender)-1].LocalTime
	if _, err := s.Feed(&Batch{
		Sender: in.Sender, Core: in.Core, TBs: in.TBs, AdvanceTo: last + 30*time.Second,
	}); err != nil {
		b.Fatal(err)
	}
}
