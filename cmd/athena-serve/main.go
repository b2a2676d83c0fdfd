// Command athena-serve runs the live multi-session attribution service:
// an HTTP server over the session registry (internal/session) that
// accepts capture and telemetry feeds from many concurrent video-call
// sessions and answers per-session root-cause attribution queries while
// the calls are still running.
//
//	athena-serve                        # serve on :8080
//	athena-serve -addr 127.0.0.1:9090   # serve elsewhere
//	athena-serve -loadgen               # replay tapped sessions into an
//	                                    # in-process server and verify
//	                                    # every digest; nonzero on mismatch
//	athena-serve -loadgen -target http://host:8080 -sessions 200
//
// The server drains gracefully: on SIGINT/SIGTERM it stops accepting
// requests, flushes every open session through its emission horizon
// (so their attribution digests are final), and logs the drained count
// before exiting.
//
// Load-generator mode replays simulator-tapped session streams
// (scenario.SessionStreams) over the same HTTP API, replicated across
// -sessions independent sessions, and verifies every streamed session's
// attribution digest against the offline batch correlation of the same
// feed — a cryptographic end-to-end check that service-mode Athena and
// paper-mode Athena are the same estimator. It exits nonzero on any
// mismatch and measures nothing: throughput and latency come from the
// benchmark (go run -C bench . -workload serve-tick100).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"athena/internal/obs"
	"athena/internal/session"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("athena-serve: ")

	addr := flag.String("addr", ":8080", "listen address (server mode)")
	maxSessions := flag.Int("max-sessions", 0, "session capacity, 0 = unbounded")
	eventsOut := flag.String("events-out", "", "append the structured event stream (JSONL) to this file")
	eventBuffer := flag.Int("event-buffer", obs.DefaultEventBuffer, "event ring-buffer capacity served by /v1/events")
	anomalyHARQ := flag.Duration("anomaly-harq-p99", 50*time.Millisecond, "per-session HARQ-attributed p99 bound; crossings emit session.anomaly events, 0 disables")
	promlint := flag.String("promlint", "", "lint a scraped Prometheus exposition page (a file, or - for stdin) and exit")
	loadgen := flag.Bool("loadgen", false, "replay simulator-tapped sessions into a server and verify every attribution digest, instead of serving")
	target := flag.String("target", "", "loadgen: server URL; empty runs an in-process server")
	sessions := flag.Int("sessions", 120, "loadgen: concurrent session count")
	ues := flag.Int("ues", 2, "loadgen: UEs in the source topology")
	cells := flag.Int("cells", 1, "loadgen: cells in the source topology (>1 shards the simulation)")
	workloads := flag.String("workloads", "vca", "loadgen: source-topology app families, vca or mixed (round-robins vca, cloud-gaming, bulk-transfer, audio-only over the UEs)")
	duration := flag.Duration("duration", 2*time.Second, "loadgen: simulated call duration per session")
	tick := flag.Duration("tick", 100*time.Millisecond, "loadgen: feed batching interval")
	seed := flag.Int64("seed", 1, "loadgen: simulation seed")
	workers := flag.Int("workers", 0, "loadgen: concurrent feeders, 0 = 2x GOMAXPROCS")
	flag.Parse()

	if *promlint != "" {
		n, err := lintExposition(*promlint)
		if err != nil {
			log.Fatalf("promlint %s: %v", *promlint, err)
		}
		log.Printf("promlint %s: %d families ok", *promlint, n)
		return
	}

	if *loadgen {
		p := loadgenParams{
			Target:    *target,
			Sessions:  *sessions,
			UEs:       *ues,
			Cells:     *cells,
			Workloads: *workloads,
			Duration:  *duration,
			Tick:      *tick,
			Seed:      *seed,
			Workers:   *workers,
		}
		res, err := runLoadgen(p)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%d/%d sessions digest-match, %d records", res.Sessions, res.Sessions, res.Records)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := session.NewRegistry()
	reg.MaxSessions = *maxSessions
	reg.AnomalyHARQP99 = *anomalyHARQ
	reg.Events = obs.NewEventLog(*eventBuffer)
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		reg.Events.SetSink(f)
	}
	log.Printf("listening on %s", ln.Addr())
	drained, err := serve(ctx, ln, reg)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Events.SinkErr(); err != nil {
		log.Printf("events sink detached: %v", err)
	}
	log.Printf("drained %d sessions, bye", drained)
}

// serve runs the session API on ln until ctx is cancelled, then drains:
// in-flight requests get shutdownGrace to finish, every remaining
// session is flushed through its horizon and closed, and the drained
// session count is returned. Metrics collection is enabled for the
// server's lifetime so /metrics is live.
func serve(ctx context.Context, ln net.Listener, reg *session.Registry) (int, error) {
	obs.Enable()
	srv := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return 0, fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		// Slow clients lose their connections; the sessions still drain.
		log.Printf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return 0, err
	}
	final := reg.CloseAll()
	return len(final), nil
}

// shutdownGrace bounds how long in-flight requests may run once a
// shutdown signal arrives.
const shutdownGrace = 10 * time.Second

// Connection read bounds, so a client that stalls mid-request cannot hold
// a connection and its goroutine forever: the request line and headers
// must arrive within readHeaderTimeout, the whole request (an 8 MiB feed
// body at worst) within readTimeout, and a keep-alive connection may sit
// idle between requests for idleTimeout. WriteTimeout stays unset on
// purpose: it is one deadline for every response, and the /v1/events
// long-poll and SSE stream legitimately hold theirs open for up to the
// session package's 30 s eventsWaitCap.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// lintExposition parses one Prometheus text page (a scraped /metrics
// capture, or stdin for "-") with the in-repo parser and returns the
// family count. It lets CI lint a live scrape without promtool.
func lintExposition(path string) (int, error) {
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		r = f
	}
	pt, err := obs.ParsePrometheus(r)
	if err != nil {
		return 0, err
	}
	if len(pt.Families) == 0 {
		return 0, errors.New("no metric families")
	}
	return len(pt.Families), nil
}
