// Command bench is the repository's one benchmark: five workloads over
// the whole pipeline (registry sweep, multi-cell simulation, offline
// correlation, athena-serve at two batch sizes), each run printing the
// end-to-end metrics of BENCHMARK.json, or — with -trace 1 — the
// per-layer rows from obs.Tracer spans wrapped around each layer's
// public calls. See README.md for what every metric means on every
// workload and which layer row should move which end-to-end number.
//
//	go run -C bench . -workload cell -seed 1
//	go run -C bench . -workload cell -trace 1
//	go run -C bench . -repeat 2 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"athena/internal/obs"
)

// workload is one set of inputs the benchmark runs. A fresh value is
// made for every set-up repetition.
type workload interface {
	// params describes the workload's sizes for the conditions block.
	params(sz sizes) string
	// setup is everything before the first timed operation: inputs
	// generated from the seed, the server started, one toy-size warm-up.
	setup(c *runCtx) error
	// teardown releases what setup acquired; it is called once per setup.
	teardown()
	// measure is the untraced run: it sets every end-to-end metric
	// except setup_s and peak_rss_mb (pid 0 = this process).
	measure(c *runCtx) (pid int, err error)
	// layers is the traced run: it sets the per-layer rows this
	// workload exercises.
	layers(c *runCtx) error
}

// preparer is implemented by a workload that needs something built
// before set-up; building is not part of setup_s.
type preparer interface {
	prepare(c *runCtx) error
}

// setupReps is how many times a run sets up; setup_s is the median, and
// the last set-up is the one measured on.
const setupReps = 3

// runCtx carries one run's inputs and collects its outputs.
type runCtx struct {
	seed    int64
	budget  time.Duration // how long the timed phases measure
	sz      sizes
	root    string // checkout root
	outDir  string // bench/out: child binary, traces, scratch stores
	tracer  *obs.Tracer
	span    obs.Span // root span; inert when untraced
	metrics map[string]float64

	serveBinary string  // the athena-serve child, built by serveWorkload.prepare
	buildS      float64 // how long that build took

	mu                sync.Mutex // guards the two counts: serve-* check from several goroutines
	attempted, failed int
}

func (c *runCtx) set(name string, v float64) { c.metrics[name] = v }

// check counts one verified operation; a false ok is a failed one.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		fmt.Printf("FAILED: "+format+"\n", args...)
	}
}

// timed runs fn under a child span of the root and returns how long it
// took.
func (c *runCtx) timed(name string, fn func()) time.Duration {
	sp := c.span.Child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	return d
}

// note prints one informational line of the human-readable report.
func (c *runCtx) note(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// startTrace switches the run into traced mode: obs collection on, one
// tracer installed as the global timeline, and the workload root span
// opened.
func (c *runCtx) startTrace(name string) {
	obs.ResetAll()
	obs.Enable()
	c.tracer = obs.NewTracer()
	obs.SetTimeline(c.tracer)
	c.span = c.tracer.Begin("workload:"+name, 0)
}

// pauseTrace switches collection and the timeline off for an untraced
// baseline inside a traced run, under a span of its own so the baseline
// does not read as the root's self time. The returned func switches them
// back on.
func (c *runCtx) pauseTrace() (resume func()) {
	sp := c.span.Child("bench.untraced_baseline")
	obs.Disable()
	obs.SetTimeline(nil)
	return func() {
		obs.ResetAll()
		obs.Enable()
		obs.SetTimeline(c.tracer)
		sp.End()
	}
}

// stopTrace closes the root span, writes the Chrome trace and folds the
// spans into the self-time table and the self_ms.<layer> rows.
func (c *runCtx) stopTrace(name string) error {
	c.span.End()
	obs.SetTimeline(nil)
	obs.Disable()
	spans := c.tracer.Snapshot()
	rows := selfTimes(spans, c.span.ID())
	c.note("span self times (self = duration minus the part child spans cover; %d spans, %d dropped):", len(spans), c.tracer.Dropped())
	c.note("  %-34s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		c.note("  %-34s %8d %12.3f %12.3f", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
	for layer, d := range layerSelf(rows) {
		c.set("self_ms."+layer, ms(d))
	}
	path := filepath.Join(c.outDir, name+".trace.json")
	if err := c.tracer.WriteChromeTraceFile(path); err != nil {
		return err
	}
	c.note("trace written to %s", path)
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload once and returns its result.
func runWorkload(def workloadDef, seed int64, budget time.Duration, sz sizes, trace bool) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	c := &runCtx{
		seed:    seed,
		budget:  budget,
		sz:      sz,
		root:    root,
		outDir:  filepath.Join(root, "bench", "out"),
		metrics: make(map[string]float64),
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}

	cond := readConditions(root)
	cond.Seed, cond.Workload = seed, def.Name
	cond.Params = def.New().params(sz)
	c.note("conditions: %s", cond)
	if cond.busy() {
		c.note("WARNING: 1-minute load average %.2f exceeds nproc/2 = %.1f; timings below are taken on a busy box", cond.Load1, float64(cond.NProc)/2)
	}

	if p, ok := def.New().(preparer); ok {
		if err := p.prepare(c); err != nil {
			return nil, err
		}
	}

	// Set up several times and report the median, so one slow start
	// does not read as a set-up regression.
	var w workload
	var setups []float64
	reps := setupReps
	if trace {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	for i := 0; i < reps; i++ {
		if w != nil {
			w.teardown()
			w = nil // or the collection below keeps the previous set-up's inputs
			runtime.GC()
		}
		w = def.New()
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	c.attempted, c.failed = 0, 0 // warm-up operations are not results

	defs := endToEnd
	if trace {
		defs = perLayer
		c.startTrace(def.Name)
		if err := w.layers(c); err != nil {
			return nil, err
		}
		if err := c.stopTrace(def.Name); err != nil {
			return nil, err
		}
	} else {
		pid, err := w.measure(c)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(pid)
		if err != nil {
			return nil, fmt.Errorf("peak rss: %w", err)
		}
		c.set("setup_s", median(setups))
		c.set("peak_rss_mb", rss)
		c.note("set-up times: %.4f s (median of %d)", setups, setupReps)
	}

	res := &result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	c.note("%-42s %16s %s", "metric", "value", "unit")
	for _, m := range defs {
		v := c.metrics[m.Name] // a per-layer row this workload does not exercise reads 0
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		c.note("%-42s %16.4f %s", m.Name, v, m.Unit)
	}
	c.note("failed_frac %d/%d", c.failed, c.attempted)
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "the only source of randomness: feeds Topology.Seed / experiment.Options.Seed")
	secs := flag.Int("seconds", defaultSeconds, "how long the timed phases measure")
	trace := flag.Int("trace", 0, "1 runs the traced run (per-layer rows) instead of the end-to-end one")
	quick := flag.Bool("quick", false, "toy sizes: a smoke test of the harness, not a measurement")
	repeat := flag.Int("repeat", 0, "run every workload this many times on the same code and seed and compare the sets against the bounds")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as the harness defines it and exit")
	flag.Parse()

	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *repeat > 0 {
		if err := runRepeat(*repeat, *seed, *secs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	res, err := runWorkload(def, *seed, time.Duration(*secs)*time.Second, sz, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runRepeat runs the full set n times, each run a fresh process exactly
// as the driver starts it, and prints per workload and end-to-end metric
// every value, how much the worst later set reads worse than the first,
// and the bound. A difference past the bound is an error.
func runRepeat(n int, seed int64, secs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][][]float64) // workload → metric index → per-set values
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", set+1, w.Name, err)
			}
			if values[w.Name] == nil {
				values[w.Name] = make([][]float64, len(endToEnd))
			}
			for i, m := range endToEnd {
				values[w.Name][i] = append(values[w.Name][i], res.Metrics[m.Name].Value)
			}
			fmt.Printf("set %d %-18s correct=%t failed=%d/%d\n", set+1, w.Name, res.Correct, res.Failed, res.Attempted)
			if !res.Correct {
				return fmt.Errorf("set %d, %s: outputs failed verification", set+1, w.Name)
			}
		}
	}
	fmt.Printf("\n%-18s %-16s %-8s %-40s %8s %6s\n", "workload", "metric", "unit", "values", "worse_by", "bound")
	breaches := 0
	for _, w := range workloads {
		for i, m := range endToEnd {
			vs := values[w.Name][i]
			worst := 0.0
			for _, v := range vs[1:] {
				if d := worseBy(vs[0], v, m.Better); d > worst {
					worst = d
				}
			}
			verdict := ""
			if worst > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-16s %-8s %-40s %7.1f%% %5.0f%%%s\n", w.Name, m.Name, m.Unit, fmt.Sprintf("%.4g", vs), 100*worst, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) differ between sets of the same code by more than their bound", breaches)
	}
	return nil
}
