// Command athena-trace runs Athena testbed scenarios and either dumps
// their raw cross-layer traces or correlates them.
//
// The default verb dumps what a real deployment's pcaps and NG-Scope
// would produce: per-point packet captures (CSV), per-TB PHY telemetry
// (CSV) and a merged time-ordered event log (JSONL).
//
//	athena-trace -duration 30s -seed 1 -out /tmp/athena
//
// writes /tmp/athena.packets.csv, /tmp/athena.tbs.csv and
// /tmp/athena.trace.jsonl.
//
// The analyze verb runs the Athena correlator and prints the cross-layer
// analysis: per-kind one-way delay summaries, frame delay spreads, and
// the root-cause attribution table (UE queueing, BSR scheduling wait,
// HARQ retransmission, WAN, SFU processing). With -seeds N it prints each
// seed's headline numbers and their spread instead; with -in it
// summarizes a dumped JSONL trace without running or correlating
// anything.
//
//	athena-trace analyze -duration 30s [-seeds 8]
//	athena-trace analyze -in /tmp/athena.trace.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"athena"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/stats"
	"athena/internal/trace"
	"athena/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("athena-trace: ")

	name, args, analyze := "athena-trace", os.Args[1:], false
	if len(args) > 0 && args[0] == "analyze" {
		name, args, analyze = "athena-trace analyze", args[1:], true
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	duration := fs.Duration("duration", 30*time.Second, "simulated call duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to simulate (in parallel): dump writes one trace per seed, analyze aggregates them")
	cross := fs.Bool("cross", false, "enable the paper's cross-traffic phase schedule (time-compressed)")
	sched := fs.String("sched", "combined", "uplink scheduler: combined|bsr|proactive|appaware|oracle")
	var in, out, flows string
	if analyze {
		fs.StringVar(&in, "in", "", "JSONL trace to summarize (default: run a live scenario)")
	} else {
		fs.StringVar(&out, "out", "athena", "output file prefix")
		fs.StringVar(&flows, "flows", "", "comma-separated flow IDs; restrict dumped capture records to these flows")
	}
	obsFlags := obs.AddCLIFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: athena-trace [flags] | athena-trace analyze [flags]\nflags of %s:\n", name)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	keepFlow, err := parseFlows(flows)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := scenarioConfig(*duration, *sched, *cross)
	if err != nil {
		log.Fatal(err)
	}

	stopObs, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopObs(); err != nil {
			log.Print(err)
		}
	}()

	if in != "" {
		summarizeFile(in)
		return
	}

	// Simulate every requested seed up front — the runner fans them across
	// the cores — then report on each in seed order.
	cfgs := make([]athena.Config, max(*seeds, 1))
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = *seed + int64(i)
	}
	results := athena.RunAll(cfgs)

	switch {
	case !analyze:
		for i, res := range results {
			prefix := out
			if len(cfgs) > 1 {
				prefix = fmt.Sprintf("%s.s%d", out, cfgs[i].Seed)
			}
			dump(prefix, res, keepFlow)
		}
	case len(cfgs) > 1:
		analyzeSeeds(cfgs, results)
	default:
		report(results[0])
	}
}

// scenarioConfig builds the default scenario with the requested uplink
// scheduler and, with cross, the paper's cross-traffic phase schedule
// compressed into the call.
func scenarioConfig(duration time.Duration, sched string, cross bool) (athena.Config, error) {
	cfg := athena.DefaultConfig()
	cfg.Duration = duration
	switch sched {
	case "combined":
		cfg.Sched = ran.SchedCombined
	case "bsr":
		cfg.Sched = ran.SchedBSROnly
	case "proactive":
		cfg.Sched = ran.SchedProactiveOnly
	case "appaware":
		cfg.Sched = ran.SchedAppAware
		cfg.AttachMeta = true
	case "oracle":
		cfg.Sched = ran.SchedOracle
	default:
		return cfg, fmt.Errorf("unknown scheduler %q", sched)
	}
	if cross {
		cfg.CrossUEs = 6
		q := cfg.Duration / 4
		cfg.CrossPhases = []ran.CrossPhase{
			{Start: 0, Rate: 0},
			{Start: q, Rate: 14 * units.Mbps},
			{Start: 2 * q, Rate: 16 * units.Mbps},
			{Start: 3 * q, Rate: 18 * units.Mbps},
		}
	}
	return cfg, nil
}

// parseFlows parses the -flows value into a keep-set; nil means keep
// everything.
func parseFlows(s string) (map[uint32]bool, error) {
	if s == "" {
		return nil, nil
	}
	keep := make(map[uint32]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -flows entry %q: %v", part, err)
		}
		keep[uint32(f)] = true
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("-flows %q names no flows", s)
	}
	return keep, nil
}

func dump(out string, res *athena.Result, keepFlow map[uint32]bool) {
	var records []packet.Record
	records = append(records, res.CapSender.Records...)
	records = append(records, res.CapCore.Records...)
	records = append(records, res.CapSFU.Records...)
	records = append(records, res.CapReceiver.Records...)
	if keepFlow != nil {
		kept := records[:0]
		for _, r := range records {
			if keepFlow[r.Flow] {
				kept = append(kept, r)
			}
		}
		records = kept
	}

	var tbs = res.RAN.Telemetry.SnifferView()

	write := func(name string, fn func(io.Writer) error) {
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := errors.Join(fn(f), f.Close()); err != nil {
			log.Fatalf("writing %s: %v", name, err)
		}
		fmt.Printf("wrote %s\n", name)
	}
	write(out+".packets.csv", func(w io.Writer) error { return trace.WritePacketCSV(w, records) })
	write(out+".tbs.csv", func(w io.Writer) error { return trace.WriteTBCSV(w, tbs) })
	evs := trace.Merge(records, tbs)
	write(out+".trace.jsonl", func(w io.Writer) error { return trace.WriteJSON(w, evs) })
	fmt.Println(trace.Summary(evs))
}

// report prints one run's correlation report.
func report(res *athena.Result) {
	rep := res.Report
	fmt.Println("== Athena cross-layer analysis ==")
	fmt.Printf("packets correlated: %d; frames: %d\n\n", len(rep.Packets), len(rep.Frames))

	fmt.Println("uplink one-way delay (ms):")
	fmt.Printf("  video: %s\n", rep.DelaySummary(packet.KindVideo))
	fmt.Printf("  audio: %s\n\n", rep.DelaySummary(packet.KindAudio))

	sender, core := rep.SpreadsMS()
	fmt.Print(stats.ASCIICDF("frame delay spread at sender (ms)", sender))
	fmt.Print(stats.ASCIICDF("frame delay spread at 5G core (ms)", core))
	fmt.Println()

	fmt.Print(rep.Attribute())

	fmt.Printf("\nprobe OWD core->SFU: %s\n", res.Prober.Summary())
	fmt.Printf("receiver: %d frames displayed, %d stalls, jitter-buffer target %v\n",
		res.Receiver.Renderer.DisplayTimes.Len(),
		res.Receiver.Renderer.Stalls,
		res.Receiver.JitterBufferTarget())
}

// analyzeSeeds reports each seed's headline numbers plus the cross-seed
// spread — the quick answer to "is this seed representative?".
func analyzeSeeds(cfgs []athena.Config, results []*athena.Result) {
	first, last := cfgs[0].Seed, cfgs[len(cfgs)-1].Seed
	fmt.Printf("== Athena cross-layer analysis: %d seeds (%d..%d) ==\n\n", len(cfgs), first, last)
	var p50s, p95s, stalls []float64
	for i, res := range results {
		sum := res.Report.DelaySummary(packet.KindVideo)
		fmt.Printf("seed %-4d video UL %s  stalls=%d\n",
			cfgs[i].Seed, sum, res.Receiver.Renderer.Stalls)
		p50s = append(p50s, sum.P50)
		p95s = append(p95s, sum.P95)
		stalls = append(stalls, float64(res.Receiver.Renderer.Stalls))
	}
	fmt.Println("\nacross seeds:")
	fmt.Printf("  video UL p50 (ms): %s\n", stats.SummarizeInPlace(p50s))
	fmt.Printf("  video UL p95 (ms): %s\n", stats.SummarizeInPlace(p95s))
	fmt.Printf("  stalls:            %s\n", stats.SummarizeInPlace(stalls))
}

// summarizeFile prints the summary of a dumped JSONL trace.
func summarizeFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadJSON(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(trace.Summary(evs))
}
