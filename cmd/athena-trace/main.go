// Command athena-trace runs Athena testbed scenarios and either dumps
// each run as a replayable session feed or correlates it.
//
// The default verb dumps what a cell-site Athena deployment would
// stream to athena-serve: the UE's session config (flow coverage, clock
// offsets, cell timing) on the first line, then one feed batch per
// 100 ms of capture — sender and core capture records and sniffed TB
// telemetry — one JSON value per line, in the session API's wire form.
//
//	athena-trace -duration 30s -seed 1 -out /tmp/athena
//
// writes /tmp/athena.session.ndjson.
//
// The analyze verb runs the Athena correlator and prints the cross-layer
// analysis: per-kind one-way delay summaries, frame delay spreads, the
// root-cause attribution table (UE queueing, BSR scheduling wait, HARQ
// retransmission, WAN, SFU processing) and the packets digest. With
// -seeds N it prints each seed's headline numbers and their spread
// instead. With -in it replays a dump through athena-serve's session
// feed checks and prints the uplink half of the same report: a feed
// carries no SFU or receiver capture, so it attributes no WAN or SFU
// delay.
//
//	athena-trace analyze -duration 30s [-seeds 8]
//	athena-trace analyze -in /tmp/athena.session.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"athena"
	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/scenario"
	"athena/internal/session"
	"athena/internal/stats"
	"athena/internal/units"
)

// feedTick is the capture span of one dumped batch, the default batching
// of athena-serve's load generator.
const feedTick = 100 * time.Millisecond

// maxLine bounds one line of a dump: the 8 MiB athena-serve allows a feed
// body.
const maxLine = 8 << 20

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
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to simulate (in parallel): dump writes one feed per seed, analyze aggregates them")
	cross := fs.Bool("cross", false, "enable the paper's cross-traffic phase schedule (time-compressed)")
	sched := fs.String("sched", "combined", "uplink scheduler: combined|bsr|proactive|appaware|oracle")
	var in, out string
	if analyze {
		fs.StringVar(&in, "in", "", "session feed to replay and correlate (default: run a live scenario)")
	} else {
		fs.StringVar(&out, "out", "athena", "output file prefix")
	}
	obsFlags := obs.AddCLIFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: athena-trace [flags] | athena-trace analyze [flags]\nflags of %s:\n", name)
		fs.PrintDefaults()
	}
	fs.Parse(args)

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
		if err := analyzeFeed(in); err != nil {
			log.Fatal(err)
		}
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
			dump(prefix+".session.ndjson", res)
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

// dump writes the run's one UE as a session feed to path.
func dump(path string, res *athena.Result) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(f)
	streams := res.SessionStreams()
	if err := errors.Join(writeFeed(w, &streams[0]), w.Flush(), f.Close()); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeFeed writes a stream as athena-serve would receive it: its
// session.Config with the capture slices nil, then one session.Batch per
// feedTick of capture, each JSON value on a line of its own.
func writeFeed(w io.Writer, ss *scenario.SessionStream) error {
	cfg := session.Config{
		ID:       ss.ID,
		Cell:     fmt.Sprintf("cell%d", ss.Cell),
		Workload: string(ss.Workload),
		Input:    ss.Input,
	}
	cfg.Input.Sender, cfg.Input.Core, cfg.Input.TBs = nil, nil, nil
	enc := json.NewEncoder(w)
	if err := enc.Encode(cfg); err != nil {
		return err
	}
	for _, ch := range ss.Chunks(feedTick) {
		if err := enc.Encode(session.Batch{
			Sender: ch.Sender, Core: ch.Core, TBs: ch.TBs, AdvanceTo: ch.AdvanceTo,
		}); err != nil {
			return err
		}
	}
	return nil
}

// readFeed reads a session feed: a session.Config line, then
// session.Batch lines, each at most maxLine bytes. Every batch is fed to
// a session as athena-serve feeds one, so the server's config bounds and
// the correlator's feed contract hold (capture order, flow coverage, no
// replayed record, a clock that only advances). It returns the config
// and the correlation input the accepted records make up; an error names
// its 1-based line.
func readFeed(r io.Reader) (session.Config, core.Input, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var cfg session.Config
	var in core.Input
	if !sc.Scan() {
		err := sc.Err()
		if err == nil {
			err = errors.New("empty feed: no session config")
		}
		return cfg, in, fmt.Errorf("line 1: %w", err)
	}
	err := json.Unmarshal(sc.Bytes(), &cfg)
	var s *session.Session
	if err == nil {
		s, err = session.NewRegistry().Create(cfg)
	}
	if err != nil {
		return cfg, in, fmt.Errorf("line 1: %w", err)
	}
	in = cfg.Input
	in.Sender, in.Core, in.SFU, in.Receiver, in.TBs = nil, nil, nil, nil, nil
	var b session.Batch
	line := 2
	for ; sc.Scan(); line++ {
		err := b.UnmarshalJSON(sc.Bytes())
		if err == nil {
			_, err = s.Feed(&b)
		}
		if err != nil {
			return cfg, in, fmt.Errorf("line %d: %w", line, err)
		}
		in.Sender = append(in.Sender, b.Sender...)
		in.Core = append(in.Core, b.Core...)
		in.TBs = append(in.TBs, b.TBs...)
	}
	if err := sc.Err(); err != nil {
		return cfg, in, fmt.Errorf("line %d: %w", line, err)
	}
	return cfg, in, nil
}

// analyzeFeed replays the session feed at path and prints the uplink
// half of its correlation report.
func analyzeFeed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg, in, err := readFeed(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("session %s (%s, %s) replayed from %s\n", cfg.ID, cfg.Cell, cfg.Workload, path)
	printUplink(core.Correlate(in), core.Causes[:core.IdxWAN])
	fmt.Println("\nWAN and SFU delay: not attributed (a session feed has no SFU or receiver capture)")
	return nil
}

// report prints one run's correlation report.
func report(res *athena.Result) {
	printUplink(res.Report, core.Causes[:])
	fmt.Printf("\nprobe OWD core->SFU: %s\n", res.Prober.Summary())
	fmt.Printf("receiver: %d frames displayed, %d stalls, jitter-buffer target %v\n",
		res.Receiver.Renderer.DisplayTimes.Len(),
		res.Receiver.Renderer.Stalls,
		res.Receiver.JitterBufferTarget())
}

// printUplink prints a report's delay summaries, frame delay spreads and
// its attribution table over causes, then its packets digest.
func printUplink(rep *core.Report, causes []core.Cause) {
	fmt.Println("== Athena cross-layer analysis ==")
	fmt.Printf("packets correlated: %d; frames: %d\n\n", len(rep.Packets), len(rep.Frames()))

	fmt.Println("uplink one-way delay (ms):")
	fmt.Printf("  video: %s\n", rep.DelaySummary(packet.KindVideo))
	fmt.Printf("  audio: %s\n\n", rep.DelaySummary(packet.KindAudio))

	sender, coreSpread := rep.SpreadsMS()
	fmt.Print(stats.ASCIICDF("frame delay spread at sender (ms)", sender))
	fmt.Print(stats.ASCIICDF("frame delay spread at 5G core (ms)", coreSpread))
	fmt.Println()

	a := rep.Attribute()
	fmt.Printf("root-cause attribution over %d packets (mean ms/packet):\n", a.Packets)
	for _, c := range causes {
		fmt.Printf("  %-26s %8.3f\n", c, a.MeanMS(c))
	}
	fmt.Printf("  packets with HARQ inflation: %d; served by BSR grant: %d\n", a.RetxAffected, a.BSRServed)
	fmt.Printf("packets digest: %s\n", rep.PacketsDigest())
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
