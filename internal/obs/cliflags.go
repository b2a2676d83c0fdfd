package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLIFlags is the shared observability flag contract every CLI exposes:
// -metrics-out (registry snapshot JSON at exit), -timeline (Chrome
// trace-event JSON at exit), -debug-addr (live expvar + pprof HTTP
// endpoint), and the pprof profiles -cpuprofile (sampled for the life
// of the run), -memprofile (heap snapshot at exit), -blockprofile and
// -mutexprofile (contention sampling for the run, snapshot at exit).
type CLIFlags struct {
	MetricsOut  string
	TimelineOut string
	DebugAddr   string

	CPUProfile   string
	MemProfile   string
	BlockProfile string
	MutexProfile string
}

// AddCLIFlags registers the observability flags on fs (typically
// flag.CommandLine, before flag.Parse).
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, gauges, histograms) to this file at exit")
	fs.StringVar(&c.TimelineOut, "timeline", "", "write a Chrome trace-event JSON span timeline (Perfetto-loadable) to this file at exit")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve expvar and pprof debug endpoints on this address (e.g. localhost:8372)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&c.BlockProfile, "blockprofile", "", "write a goroutine blocking profile to this file at exit")
	fs.StringVar(&c.MutexProfile, "mutexprofile", "", "write a mutex contention profile to this file at exit")
	return c
}

// Start enables collection as requested: metric recording when any of
// -metrics-out, -timeline or -debug-addr is set (profiles alone leave it
// off), the global timeline for -timeline, the debug HTTP endpoint for
// -debug-addr, CPU sampling for -cpuprofile and the runtime's contention
// sampling for -blockprofile and -mutexprofile. The returned stop
// function writes every requested file and returns the errors it met;
// call it exactly once, after the workload.
func (c *CLIFlags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	if c.BlockProfile != "" {
		// Sample every blocking event; the workloads here are short-lived
		// CLI runs where full fidelity beats sampling cheapness.
		runtime.SetBlockProfileRate(1)
	}
	if c.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	var tr *Tracer
	if c.MetricsOut != "" || c.TimelineOut != "" || c.DebugAddr != "" {
		Enable()
		if c.TimelineOut != "" {
			tr = NewTracer()
			SetTimeline(tr)
		}
		if c.DebugAddr != "" {
			go func() {
				if err := ServeDebug(c.DebugAddr); err != nil {
					fmt.Fprintf(os.Stderr, "obs: debug endpoint: %v\n", err)
				}
			}()
		}
	}
	return func() error {
		var errs []error
		if c.MetricsOut != "" {
			if err := WriteMetricsFile(c.MetricsOut); err != nil {
				errs = append(errs, fmt.Errorf("writing metrics snapshot: %w", err))
			}
		}
		if tr != nil {
			errs = append(errs, tr.WriteChromeTraceFile(c.TimelineOut))
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if c.BlockProfile != "" {
			errs = append(errs, writeProfile("block", c.BlockProfile))
			runtime.SetBlockProfileRate(0)
		}
		if c.MutexProfile != "" {
			errs = append(errs, writeProfile("mutex", c.MutexProfile))
			runtime.SetMutexProfileFraction(0)
		}
		if c.MemProfile != "" {
			runtime.GC() // settle live objects so the snapshot reflects retained memory
			errs = append(errs, writeProfile("heap", c.MemProfile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeProfile snapshots the named runtime profile (heap, block, mutex)
// to path.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s profile: %w", name, err)
	}
	if err := errors.Join(pprof.Lookup(name).WriteTo(f, 0), f.Close()); err != nil {
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	return nil
}
