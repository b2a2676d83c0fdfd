package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// promTestMetrics registers a deterministic metric population under a
// unique prefix and returns a cleanup-removal func.
func promTestMetrics(t *testing.T, prefix string) {
	t.Helper()
	Enable()
	t.Cleanup(func() {
		Disable()
		UnregisterPrefix(prefix)
	})
	NewCounter(prefix + "requests").Add(42)
	NewCounter(prefix + "errors") // zero-valued counters still export
	NewGauge(prefix + "active").Set(7)
	h := NewHistogram(prefix + "latency_ns")
	for _, v := range []int64{1, 2, 3, 900, 1000, 1 << 20} {
		h.Observe(v)
	}
}

// TestPrometheusRoundTrip pins the exposition contract: WritePrometheus
// output parses under the in-repo linter, and every histogram's
// cumulative buckets, sum and count round-trip exactly against the JSON
// snapshot of the same registry.
func TestPrometheusRoundTrip(t *testing.T) {
	const prefix = "promtest.rt."
	promTestMetrics(t, prefix)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not lint:\n%s\nerror: %v", buf.String(), err)
	}

	snap := TakeSnapshot()
	for name, want := range snap.Counters {
		f := page.Families[PromName(name)]
		if f == nil || f.Type != "counter" {
			t.Fatalf("counter %s missing or mistyped in exposition", name)
		}
		if got := f.Samples[0].Value; got != float64(want) {
			t.Fatalf("counter %s: exposition %v != snapshot %d", name, got, want)
		}
	}
	for name, want := range snap.Gauges {
		f := page.Families[PromName(name)]
		if f == nil || f.Type != "gauge" {
			t.Fatalf("gauge %s missing or mistyped", name)
		}
		if got := f.Samples[0].Value; got != float64(want) {
			t.Fatalf("gauge %s: exposition %v != snapshot %d", name, got, want)
		}
	}
	for name, want := range snap.Histograms {
		f := page.Families[PromName(name)]
		if f == nil {
			t.Fatalf("histogram %s missing", name)
		}
		buckets, sum, count, err := f.HistogramCounts()
		if err != nil {
			t.Fatalf("histogram %s: %v", name, err)
		}
		if count != want.Count || sum != float64(want.Sum) {
			t.Fatalf("histogram %s: count/sum %d/%v != %d/%d", name, count, sum, want.Count, want.Sum)
		}
		// Cumulative exposition buckets must re-derive the snapshot's
		// per-bucket counts.
		var cum int64
		bi := 0
		for _, sb := range want.Buckets {
			for bi < len(buckets) && buckets[bi].Le < float64(sb.Le) {
				bi++
			}
			if bi == len(buckets) || buckets[bi].Le != float64(sb.Le) {
				t.Fatalf("histogram %s: le=%d bucket missing from exposition", name, sb.Le)
			}
			cum += sb.N
			if buckets[bi].Cum != cum {
				t.Fatalf("histogram %s le=%d: cumulative %d != %d", name, sb.Le, buckets[bi].Cum, cum)
			}
		}
		if last := buckets[len(buckets)-1]; !math.IsInf(last.Le, 1) || last.Cum != want.Count {
			t.Fatalf("histogram %s: +Inf bucket %+v, want cum %d", name, last, want.Count)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"serve.http.feed_ns":   "athena_serve_http_feed_ns",
		"session.lg-01.pend":   "athena_session_lg_01_pend",
		"experiment.F7.wall":   "athena_experiment_F7_wall",
		"weird name/with%chrs": "athena_weird_name_with_chrs",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if !validPromName(PromName(in)) {
			t.Errorf("PromName(%q) is not a valid Prometheus name", in)
		}
	}
}

// Registry names that collide after PromName must not emit two families
// under one Prometheus name: one name holding both a counter and a gauge,
// and three histograms whose names differ only in '.', '-' and ' ' (the
// delay histograms of sessions in cells "a.b", "a-b" and "a b").
func TestPrometheusKindCollision(t *testing.T) {
	const name = "promtest.collide.value"
	promTestMetrics(t, "promtest.collide.")
	NewCounter(name).Add(1)
	NewGauge(name).Set(2)
	for _, cell := range []string{"a.b", "a-b", "a b"} {
		NewHistogram("promtest.collide.cell." + cell + ".delay_ns").Observe(1)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("collision output does not lint: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, PromName(name)+"_gauge ") {
		t.Fatalf("gauge kind not disambiguated:\n%s", out)
	}
	base := PromName("promtest.collide.cell.a_b.delay_ns")
	for _, pn := range []string{base, base + "_histogram", base + "_histogram_histogram"} {
		if !strings.Contains(out, "# TYPE "+pn+" histogram\n") {
			t.Fatalf("family %s missing:\n%s", pn, out)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"# TYPE x counter\nx 1\nx 2\n",
		"# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_count 1\n", // no sum
		"# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_bucket{le=\"+Inf\"} 1\nx_sum 3\nx_count 1\n", // non-cumulative
		"# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\nx_sum 3\nx_count 1\n",                       // inf != count
		"# TYPE 9x counter\n9x 1\n",
		"# TYPE x counter\nx 1 2 3\n",
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("malformed exposition accepted:\n%s", in)
		}
	}
}

// The debug mux now serves /metrics with content negotiation alongside
// expvar and pprof.
func TestDebugHandlerServesPrometheus(t *testing.T) {
	promTestMetrics(t, "promtest.debug.")
	h := DebugHandler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	if _, err := ParsePrometheus(rr.Body); err != nil {
		t.Fatalf("debug /metrics does not lint: %v", err)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Accept: application/json got content type %q", ct)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/json", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics/json content type %q", ct)
	}
}
