package obs

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the exposition-format content type served at
// /metrics (text format 0.0.4, the format every Prometheus scraper
// accepts by default).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName maps a registry metric name to a legal Prometheus metric
// name: the "athena_" namespace prefix plus the name with every
// character outside [a-zA-Z0-9_:] rewritten to '_'. The mapping is not
// injective ("a.b" and "a-b" collide); WritePrometheus deduplicates
// collisions deterministically by suffixing the metric kind until the
// name is unique.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("athena_") + len(name))
	b.WriteString("athena_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry snapshot in the Prometheus text
// exposition format: one "# TYPE" header per metric family, counters and
// gauges as single samples, histograms as cumulative le-bucket series
// plus _sum and _count. The fixed power-of-two buckets map directly to
// `le` upper bounds (bucket i ⇒ le = 2^i - 1); only non-empty buckets
// are emitted (sparse le series are legal) and the mandatory
// le="+Inf" bucket always equals _count. Families are emitted in sorted
// name order, so output is deterministic for a given set of values.
func WritePrometheus(w io.Writer) error {
	return writePrometheusSnapshot(w, TakeSnapshot())
}

func writePrometheusSnapshot(w io.Writer, s Snapshot) error {
	var b bytes.Buffer
	seen := make(map[string]bool, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	family := func(name, kind string) string {
		// A registry name may hold a counter, a gauge and a histogram
		// at once, and distinct names can collide after sanitization;
		// a later family takes a deterministic kind suffix, repeated
		// until its name is unique.
		pn := PromName(name)
		for seen[pn] {
			pn += "_" + kind
		}
		seen[pn] = true
		return pn
	}

	for _, name := range sortedKeys(s.Counters) {
		pn := family(name, "counter")
		b.WriteString("# TYPE ")
		b.WriteString(pn)
		b.WriteString(" counter\n")
		b.WriteString(pn)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(s.Counters[name], 10))
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := family(name, "gauge")
		b.WriteString("# TYPE ")
		b.WriteString(pn)
		b.WriteString(" gauge\n")
		b.WriteString(pn)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(s.Gauges[name], 10))
		b.WriteByte('\n')
	}
	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := s.Histograms[name]
		pn := family(name, "histogram")
		b.WriteString("# TYPE ")
		b.WriteString(pn)
		b.WriteString(" histogram\n")
		var cum int64
		for _, bk := range h.Buckets {
			cum += bk.N
			b.WriteString(pn)
			b.WriteString(`_bucket{le="`)
			b.WriteString(strconv.FormatInt(bk.Le, 10))
			b.WriteString(`"} `)
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')
		}
		b.WriteString(pn)
		b.WriteString(`_bucket{le="+Inf"} `)
		b.WriteString(strconv.FormatInt(h.Count, 10))
		b.WriteByte('\n')
		b.WriteString(pn)
		b.WriteString("_sum ")
		b.WriteString(strconv.FormatInt(h.Sum, 10))
		b.WriteByte('\n')
		b.WriteString(pn)
		b.WriteString("_count ")
		b.WriteString(strconv.FormatInt(h.Count, 10))
		b.WriteByte('\n')
	}
	_, err := w.Write(b.Bytes())
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MetricsHandler serves the registry over HTTP with content negotiation:
// Prometheus text exposition by default (what a scraper with no opinions
// gets), the JSON snapshot when the Accept header asks for
// application/json. Mount it at /metrics; mount MetricsJSONHandler at
// /metrics/json for clients that prefer a path to a header.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsJSON(req.Header.Get("Accept")) {
			serveMetricsJSON(w)
			return
		}
		w.Header().Set("Content-Type", PrometheusContentType)
		_ = WritePrometheus(w)
	})
}

// MetricsJSONHandler always serves the JSON snapshot, regardless of
// Accept headers.
func MetricsJSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serveMetricsJSON(w)
	})
}

func serveMetricsJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = WriteMetricsJSON(w)
}

// wantsJSON reports whether an Accept header prefers the JSON snapshot
// over the Prometheus text format. Plain "*/*" (or no header) means the
// caller has no preference and gets Prometheus text.
func wantsJSON(accept string) bool {
	return strings.Contains(accept, "application/json")
}
