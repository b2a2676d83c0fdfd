package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"athena/internal/obs"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}

	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	// p99 of 9000 samples leaves 90 beyond it; the maximum leaves none.
	if got := beyond(9000, 0.99); got != 90 {
		t.Errorf("beyond(9000, 0.99) = %d, want 90", got)
	}
	if got := beyond(3, 1); got != 0 {
		t.Errorf("beyond(3, 1) = %d, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v, want 0.10", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 = %v, want 0.10", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("an improvement reads as worse: %v", got)
	}
}

func TestCovered(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		name   string
		lo, hi int
		ivs    [][2]time.Duration
		want   int
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]time.Duration{iv(10, 20), iv(30, 50)}, 30},
		{"overlapping", 0, 100, [][2]time.Duration{iv(10, 40), iv(30, 50)}, 40},
		{"nested", 0, 100, [][2]time.Duration{iv(10, 90), iv(30, 50)}, 80},
		{"clipped", 20, 60, [][2]time.Duration{iv(0, 30), iv(50, 100)}, 20},
		{"outside", 20, 60, [][2]time.Duration{iv(0, 10), iv(70, 100)}, 0},
		{"unsorted", 0, 100, [][2]time.Duration{iv(60, 70), iv(10, 20)}, 20},
	} {
		if got := covered(time.Duration(tc.lo), time.Duration(tc.hi), tc.ivs); got != time.Duration(tc.want) {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and a [30,60] (concurrent, so
	// they overlap) and b [70,90]; b has a child c [75,80]. An orphan
	// root span from inside the program lies outside the tree.
	spans := []obs.SpanRecord{
		{ID: 1, Name: "workload:x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scenario.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "scenario.a", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "core.b", Start: 70, End: 90},
		{ID: 5, Parent: 4, Name: "core.c", Start: 75, End: 80},
		{ID: 6, Name: "correlate", Start: 76, End: 79},
	}
	rows := selfTimes(spans, 1)
	got := map[string]nameStat{}
	for _, r := range rows {
		got[r.Name] = r
	}
	want := map[string]nameStat{
		"workload:x": {Name: "workload:x", Count: 1, Total: 100, Self: 30}, // 100 − |[10,60] ∪ [70,90]|
		"scenario.a": {Name: "scenario.a", Count: 2, Total: 60, Self: 60},
		"core.b":     {Name: "core.b", Count: 1, Total: 20, Self: 15},
		"core.c":     {Name: "core.c", Count: 1, Total: 5, Self: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
	layers := layerSelf(rows)
	if layers["bench"] != 30 || layers["scenario"] != 60 || layers["core"] != 20 {
		t.Errorf("layer self times %v, want bench=30 scenario=60 core=20", layers)
	}
	// Every nanosecond of the root is attributed at least once; it is
	// more than once only where children ran concurrently (a ∩ a = 10).
	var total time.Duration
	for _, d := range layers {
		total += d
	}
	if total != 110 {
		t.Errorf("self times sum to %d, want root 100 + 10 of overlap", total)
	}
	if tot := spanTotals(spans); tot["correlate"] != 3 || tot["scenario.a"] != 60 {
		t.Errorf("span totals %v", tot)
	}
}

func TestSpanLayer(t *testing.T) {
	for name, want := range map[string]string{
		"workload:cell":        "bench",
		"scenario.RunTopology": "scenario",
		"http.POST":            "http",
		"bench.untraced":       "bench",
		"correlate":            "bench",
	} {
		if got := spanLayer(name); got != want {
			t.Errorf("spanLayer(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestScheduleAndLateness(t *testing.T) {
	s := schedule{slots: 4, interval: 250 * time.Microsecond}
	if got := s.due(0); got != 0 {
		t.Errorf("due(0) = %v", got)
	}
	if got := s.due(4000); got != time.Second {
		t.Errorf("due(4000) = %v, want 1s at 4000/s", got)
	}
	// Batches deal round-robin over the slots, and a slot's own batches
	// are numbered consecutively: the order its session must be fed in.
	seen := map[int]int{}
	for k := 0; k < 40; k++ {
		slot, n := s.slot(k)
		if slot != k%4 {
			t.Fatalf("batch %d in slot %d, want %d", k, slot, k%4)
		}
		if n != seen[slot] {
			t.Fatalf("batch %d is slot %d's #%d, want #%d", k, slot, n, seen[slot])
		}
		seen[slot]++
	}

	// A request due at t, sent 3 ms late because the one before it
	// stalled, and answered 1 ms after that: 4 ms of latency, 3 ms late.
	due := time.Unix(100, 0)
	sent := due.Add(3 * time.Millisecond)
	done := sent.Add(time.Millisecond)
	latency, late := fromDue(due, sent, done)
	if latency != 4*time.Millisecond || late != 3*time.Millisecond {
		t.Errorf("fromDue = %v, %v; want 4ms, 3ms", latency, late)
	}
}

func TestParseProc(t *testing.T) {
	// Field 2 is the command and may hold spaces and parentheses.
	stat := "4242 (athena serve) (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 123 45 0 0 20 0 8 0 1000 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 168 * procTick; cpu != want {
		t.Errorf("cpu = %v, want %v", cpu, want)
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}

	mb, err := parseVmHWM("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if mb != 200 {
		t.Errorf("VmHWM = %v MB, want 200", mb)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// TestBenchmarkJSON is the lint on the driver's contract: the committed
// BENCHMARK.json is exactly what the harness defines, and every name,
// unit and count is inside the limits the driver refuses beyond.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with: go run -C bench . -describe > BENCHMARK.json")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", defaultSeconds)
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
}

// TestQuickSmoke runs every workload at toy size, untraced and traced,
// with the digest checks on, so the harness cannot rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator and builds athena-serve")
	}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(def, 1, time.Second, quickSizes, trace)
			if err != nil {
				t.Fatalf("%s (trace=%t): %v", def.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%t): correct=%t failed=%d attempted=%d", def.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace=%t): %d metrics, want %d", def.Name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s (trace=%t): metric %s missing or unit %q != %q", def.Name, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, m.Name, v.Value)
				}
			}
		}
	}
}
