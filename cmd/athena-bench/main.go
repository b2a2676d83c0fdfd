// Command athena-bench regenerates the paper's evaluation artifacts —
// figures F3–F10, the §5 mitigation studies M1–M4, the design ablations
// A1–A4 and the extension studies S1–S4, S8 and S9 (23 in all) — by
// sweeping the experiment registry (internal/experiment). It carries no
// per-experiment table of its own: every registered experiment,
// including out-of-tree ones registered by importing packages, is
// selectable and sweepable.
//
//	athena-bench                       # everything, full scale
//	athena-bench -list                 # show the registry
//	athena-bench -only F5,f10          # a subset (IDs, case-insensitive)
//	athena-bench -tags smoke           # by tag (one experiment per family)
//	athena-bench -regex '^F9'          # by ID/title regex
//	athena-bench -scale 0.25           # quick pass
//	athena-bench -parallel 4           # up to 4 experiments concurrently
//	athena-bench -manifest run.json    # JSON run manifest for regression diffing
//	athena-bench -store .athena-store  # persistent result store: repeat sweeps are incremental
//	athena-bench -shard 2/4 ...        # run the second quarter of the selection
//	athena-bench -merge-manifests merged.json s1.json s2.json ...
//	athena-bench -diff-manifests a.json b.json
//
// With -parallel the experiments run concurrently but output streams in
// registry order as each ordered prefix completes, so the figure
// content is byte-identical to a serial run (only the timing lines
// differ). Within each experiment the scenario sweep itself also fans
// out across the shared runner pool, so even -parallel 1 uses every
// core.
//
// With -store (or ATHENA_STORE in the environment) results persist in
// an on-disk content-addressed store keyed by experiment, options and
// code revision: a warm sweep skips every unchanged generator and is
// digest-identical to a cold one. -shard i/n deterministically
// partitions any selection by canonical ID order so a sweep splits
// across machines; -merge-manifests recombines the shard manifests
// into one manifest digest-identical to an unsharded run.
//
// On SIGINT/SIGTERM a sweep stops launching new experiments, lets
// in-flight ones finish, and still writes the manifest — completed
// entries intact, never-started ones marked skipped — so a cancelled
// CI job or ^C'd run keeps its partial progress diffable (and, with
// -store, already persisted).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"athena/internal/experiment"
	"athena/internal/obs"
	"athena/internal/profiling"
	"athena/internal/runner"
	"athena/internal/store"

	_ "athena" // register the built-in experiment drivers
)

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// storeNamespace resolves the cache-partition namespace: explicit flag,
// then ATHENA_STORE_NAMESPACE, then the build's VCS revision (plus a
// +dirty marker for modified trees), then "dev". Stored digests prove
// integrity, not freshness — the namespace is what keeps a sweep on
// changed code from resurrecting a previous revision's figures.
func storeNamespace(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if env := os.Getenv("ATHENA_STORE_NAMESPACE"); env != "" {
		return env
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return "dev"
}

// runMergeManifests implements -merge-manifests OUT in1.json in2.json…
func runMergeManifests(out string, inputs []string) error {
	if len(inputs) == 0 {
		return fmt.Errorf("-merge-manifests needs shard manifest paths as arguments")
	}
	ms := make([]*experiment.Manifest, 0, len(inputs))
	for _, p := range inputs {
		m, err := experiment.ReadManifestFile(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		ms = append(ms, m)
	}
	merged, err := experiment.MergeManifests(ms)
	if err != nil {
		return err
	}
	if err := merged.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("merged %d manifests (%d experiments) into %s\n", len(ms), len(merged.Experiments), out)
	return nil
}

// runDiffManifests implements -diff-manifests a.json b.json; a nonzero
// exit means the runs rendered different artifacts.
func runDiffManifests(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-diff-manifests needs exactly two manifest paths, got %d", len(paths))
	}
	a, err := experiment.ReadManifestFile(paths[0])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[0], err)
	}
	b, err := experiment.ReadManifestFile(paths[1])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[1], err)
	}
	if diffs := experiment.DiffDigests(a, b); len(diffs) != 0 {
		for _, d := range diffs {
			fmt.Println(d)
		}
		return fmt.Errorf("%d digest differences between %s and %s", len(diffs), paths[0], paths[1])
	}
	fmt.Printf("manifests agree: %d experiments, digest-identical\n", len(a.Experiments))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("athena-bench: ")

	scale := flag.Float64("scale", 1, "duration multiplier for all experiments")
	seed := flag.Int64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list the selected experiments (default: all) and exit")
	only := flag.String("only", "", "comma-separated experiment IDs, case-insensitive (default: all)")
	tags := flag.String("tags", "", "comma-separated tags; keep experiments carrying any of them")
	regex := flag.String("regex", "", "regular expression matched against experiment ID and title")
	manifest := flag.String("manifest", "", "write a JSON run manifest (options, wall times, content digests) to this file")
	out := flag.String("out", "", "directory to also write per-figure CSV data into")
	parallel := flag.Int("parallel", 1, "number of experiments to regenerate concurrently")
	verbose := flag.Bool("v", false, "print runner pool and result store statistics after the sweep")
	storeDir := flag.String("store", os.Getenv("ATHENA_STORE"), "persistent result store directory (default $ATHENA_STORE; empty disables)")
	storeMaxMB := flag.Int64("store-max-mb", 256, "result store size budget in MiB before LRU pruning (<= 0: unbounded)")
	storeNS := flag.String("store-namespace", "", "result store namespace (default $ATHENA_STORE_NAMESPACE, else the build VCS revision)")
	shardSpec := flag.String("shard", "", "run one shard i/n of the selection, partitioned by canonical ID order (e.g. 2/4)")
	mergeOut := flag.String("merge-manifests", "", "merge the shard manifests given as arguments into this file and exit")
	diffMode := flag.Bool("diff-manifests", false, "diff the two manifests given as arguments by digest and exit (nonzero on difference)")
	prof := profiling.AddFlags(flag.CommandLine)
	obsFlags := obs.AddCLIFlags(flag.CommandLine)
	flag.Parse()

	// Manifest utility modes: no simulation, just read/combine/compare.
	if *mergeOut != "" {
		if err := runMergeManifests(*mergeOut, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *diffMode {
		if err := runDiffManifests(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}

	sel, err := experiment.Select(experiment.Selection{
		IDs:   splitCSV(*only),
		Tags:  splitCSV(*tags),
		Regex: *regex,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *shardSpec != "" {
		sh, err := experiment.ParseShard(*shardSpec)
		if err != nil {
			log.Fatal(err)
		}
		sel = sh.Partition(sel)
	}
	if *list {
		for _, e := range sel {
			fmt.Printf("%-4s %-10s %-32s %s\n", e.ID, e.Family, strings.Join(e.Tags, ","), e.Title)
		}
		fmt.Printf("%d experiments selected\n", len(sel))
		return
	}
	if len(sel) == 0 {
		log.Fatalf("no experiments match the selection; run with -list to see the registry")
	}

	stopProf, err := profiling.StartConfig(*prof)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	// Pool and store statistics ride the obs counters, so -v and any
	// store use imply collection even when no output file was
	// requested (instrumentation is digest-neutral, see
	// TestDigestsUnchangedByObservability).
	if *verbose || *storeDir != "" {
		obs.Enable()
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		log.Fatal(err)
	}

	opts := experiment.Options{Seed: *seed, Scale: *scale}
	namespace := storeNamespace(*storeNS)

	var resultStore *store.Store
	if *storeDir != "" {
		resultStore, err = store.Open(*storeDir, store.Config{MaxBytes: *storeMaxMB << 20, Metrics: "store"})
		if err != nil {
			log.Fatal(err)
		}
	}

	// A first ^C (or SIGTERM) stops launching experiments but lets
	// in-flight ones complete, and the partial manifest below still
	// gets written; a second one kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	results := experiment.Sweep(ctx, sel, experiment.SweepConfig{
		Options:        opts,
		Parallel:       *parallel,
		OutDir:         *out,
		Cache:          resultStore,
		CacheNamespace: namespace,
		OnResult: func(_ int, r experiment.RunResult) {
			if r.Err != nil {
				return // reported after the sweep
			}
			fmt.Print(r.Rendered)
			if len(r.Artifacts) > 0 {
				fmt.Printf("  [csv: %s]\n", strings.Join(r.Artifacts, ", "))
			}
			if r.Cached {
				fmt.Printf("  [store hit in %v]\n\n", r.StoreWait.Round(time.Microsecond))
			} else {
				fmt.Printf("  [regenerated in %v]\n\n", r.Wall.Round(time.Millisecond))
			}
		},
	})

	// The manifest is written before any error/interrupt reporting so a
	// cancelled run keeps its completed entries (skipped slots marked).
	completed, skipped, cached := 0, 0, 0
	var firstErr error
	for _, r := range results {
		switch {
		case r.Skipped:
			skipped++
		case r.Err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.Experiment.ID, r.Err)
			}
		default:
			completed++
			if r.Cached {
				cached++
			}
		}
	}
	if *manifest != "" {
		if err := experiment.NewManifest(opts, results).WriteFile(*manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote manifest %s (%d experiments, %d skipped)\n", *manifest, len(results), skipped)
	}
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fmt.Printf("regenerated %d artifacts (%d from store) in %v\n", completed, cached, time.Since(start).Round(time.Millisecond))
	if *verbose {
		st := runner.Default.Stats()
		fmt.Printf("scenario pool: %d submissions, %d memo hits, %d misses, %d evictions, %d in flight, %d flushes\n",
			st.Submissions, st.MemoHits, st.MemoMisses, st.MemoEvictions, st.InFlight, st.Flushes)
		if resultStore != nil {
			ss := resultStore.Stats()
			fmt.Printf("result store: %d hits, %d misses, %d writes, %d evictions, %d corrupt (%d entries, %d bytes)\n",
				ss.Hits, ss.Misses, ss.Writes, ss.Evictions, ss.Corrupt, resultStore.Len(), resultStore.Size())
		}
	}
	if err := stopObs(); err != nil {
		log.Fatal(err)
	}
	if skipped > 0 {
		stopProf()
		log.Printf("interrupted: %d experiments skipped; manifest (if any) is partial", skipped)
		os.Exit(1)
	}
}
