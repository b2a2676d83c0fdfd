package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"athena/internal/core"
	"athena/internal/obs"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/scenario"
	"athena/internal/sim"
)

// cellWorkload is one big homogeneous deployment through
// scenario.RunTopology, alternately on one goroutine (Serial) and on the
// shard gang; every run's digest must equal the first's.
//
// unit = one simulated UE-second, serial; op = one sharded run.
type cellWorkload struct {
	top scenario.Topology
}

func (w *cellWorkload) params(sz sizes) string {
	return fmt.Sprintf("ues=%d cells=%d handover_ues=%d simulated=%v workload=vca modes=serial,sharded",
		sz.cellUEs, sz.cellCells, sz.cellHandovers, sz.cellDur)
}

func (w *cellWorkload) ueSeconds() float64 {
	return float64(len(w.top.UEs)) * w.top.Duration.Seconds()
}

// warmTopology is the toy deployment every simulator-backed workload
// runs once in set-up, so the first timed run does not pay for heap
// growth and lazy initialisation.
func warmTopology(seed int64) {
	top := multiCell(seed, 8, 2, 2, time.Second)
	scenario.RunTopology(top)
}

func (w *cellWorkload) setup(c *runCtx) error {
	w.top = multiCell(c.seed, c.sz.cellUEs, c.sz.cellCells, c.sz.cellHandovers, c.sz.cellDur)
	warmTopology(c.seed)
	return nil
}

func (w *cellWorkload) teardown() {}

// run executes the topology once in the given mode under a span.
func (w *cellWorkload) run(parent obs.Span, serial bool) (*scenario.TopologyResult, time.Duration) {
	top := w.top
	top.Serial = serial
	sp := parent.Child("scenario.RunTopology")
	t0 := time.Now()
	tr := scenario.RunTopology(top)
	wall := time.Since(t0)
	sp.End()
	return tr, wall
}

func (w *cellWorkload) measure(c *runCtx) (int, error) {
	start := time.Now()
	var serialS, shardedUS []float64
	var cpu time.Duration
	want := ""
	runs := 0
	for runs == 0 || time.Since(start) < c.budget {
		for _, serial := range []bool{true, false} {
			cpu0 := selfCPU()
			tr, wall := w.run(c.span, serial)
			cpu += selfCPU() - cpu0
			runs++
			d := tr.Digest()
			if want == "" {
				want = d
			}
			c.check(d == want, "run %d (serial=%t): digest %s, first run %s", runs, serial, d, want)
			if serial {
				serialS = append(serialS, wall.Seconds())
			} else {
				shardedUS = append(shardedUS, us(wall))
			}
		}
	}
	ues := w.ueSeconds()
	c.set("units_per_s", ues/median(serialS))
	c.set("cpu_us_per_unit", us(cpu)/(ues*float64(runs)))
	c.set("op_p50_us", median(shardedUS))
	c.note("cell: %.0f UE-seconds per run, %d serial runs %.3f s, %d sharded runs max %.0f us, sharded %.1f UE-s/s",
		ues, len(serialS), serialS, len(shardedUS), quantile(shardedUS, 1), ues/(median(shardedUS)/1e6))
	c.note("digest cell-topology %s", want)
	return 0, nil
}

func (w *cellWorkload) layers(c *runCtx) error {
	ues := w.ueSeconds()

	// One untraced serial run: the base of the tracing overhead.
	resume := c.pauseTrace()
	tr0, wall0 := w.run(obs.Span{}, true)
	want := tr0.Digest()
	resume()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	trS, wallS := w.run(c.span, true)
	runtime.ReadMemStats(&m1)
	serialSnap := obs.TakeSnapshot()
	c.check(trS.Digest() == want, "traced serial digest %s, untraced %s", trS.Digest(), want)
	c.set("bench.trace_overhead_frac", wallS.Seconds()/wall0.Seconds()-1)
	c.set("scenario.run_serial_ms_per_ue_s", ms(wallS)/ues)
	c.set("scenario.allocs_per_ue_s", float64(m1.Mallocs-m0.Mallocs)/ues)
	c.set("scenario.alloc_kb_per_ue_s", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/ues)

	// Each shard's engine is labelled and counts under sim.<label>.*;
	// an unlabelled engine counts under sim.* itself.
	var events float64
	var depth int64
	for name, v := range serialSnap.Counters {
		if strings.HasPrefix(name, "sim.") && strings.HasSuffix(name, "events_fired") {
			events += float64(v)
		}
	}
	for name, v := range serialSnap.Gauges {
		if strings.HasPrefix(name, "sim.") && strings.HasSuffix(name, "heap_depth_max") && v > depth {
			depth = v
		}
	}
	c.set("sim.events_per_ue_s", events/ues)
	c.set("sim.heap_depth_max", float64(depth))
	var tbs int
	var granted float64
	for _, sr := range trS.Shards {
		for _, cell := range sr.RANs {
			tbs += len(cell.Telemetry.Records)
			granted += float64(cell.GrantedBytes())
		}
	}
	c.set("ran.tbs_per_ue_s", float64(tbs)/ues)
	c.set("ran.harq_retx_per_ue_s", float64(serialSnap.Counters["ran.harq_retx"])/ues)
	grants := 0.0
	for _, k := range []string{"proactive", "requested", "app_aware", "oracle"} {
		grants += float64(serialSnap.Counters["ran.grants."+k])
	}
	if grants > 0 {
		c.set("ran.grants_requested_frac", float64(serialSnap.Counters["ran.grants.requested"])/grants)
	}
	if granted > 0 {
		c.set("ran.tb_wasted_frac", float64(serialSnap.Counters["ran.tb_wasted_bytes"])/granted)
	}
	c.set("ran.drops", float64(serialSnap.Counters["ran.drops"]))

	// Sharded: what the gang and the window barriers cost.
	obs.ResetAll()
	trP, wallP := w.run(c.span, false)
	shardSnap := obs.TakeSnapshot()
	c.check(trP.Digest() == want, "traced sharded digest %s, untraced %s", trP.Digest(), want)
	c.set("scenario.run_sharded_ms_per_ue_s", ms(wallP)/ues)
	c.set("sim.shards.speedup", wallS.Seconds()/wallP.Seconds())
	c.set("sim.shards.windows", float64(shardSnap.Counters["sim.windows"]))
	c.set("sim.shards.mailbox_posts", float64(shardSnap.Counters["sim.mailbox_posts"]))
	if n := len(trP.Shards); n > 0 {
		wait := float64(shardSnap.Histograms["sim.barrier_wait_ns"].Sum)
		c.set("sim.shards.barrier_wait_frac", wait/(float64(n)*float64(wallP)))
	}

	// The stages after the simulation: digest, stream tap, per-stream
	// correlation (what RunTopology's own correlate stage does), chunking.
	c.set("scenario.digest_ms", ms(c.timed("scenario.Digest", func() { trS.Digest() })))
	var streams []scenario.SessionStream
	c.set("scenario.streams_tap_ms", ms(c.timed("scenario.SessionStreams", func() { streams = trS.SessionStreams() })))
	var correlate time.Duration
	for i := range streams {
		correlate += c.timed("core.Correlate", func() { core.Correlate(streams[i].Input) })
	}
	c.set("scenario.correlate_stage_frac", correlate.Seconds()/wallS.Seconds())
	c.set("scenario.simulate_ms_per_ue_s", ms(wallS-correlate)/ues)
	c.set("scenario.chunks_ms", ms(c.timed("scenario.Chunks", func() {
		for i := range streams {
			streams[i].Chunks(tick100)
		}
	})))

	// Kernels: the event loop at the heap depth the run reported, and
	// the RAN slot machinery alone.
	eventNS, tickerNS := simKernel(c.span, int(depth))
	c.set("sim.event_ns", eventNS)
	c.set("sim.ticker_ns", tickerNS)
	c.set("sim.est_share_cell", events*eventNS/float64(wallS))
	c.set("ran.slot_ns_per_ue", ranKernel(c.span, c.seed))
	c.note("digest cell-topology %s", want)
	return nil
}

// kernelEvents is how many events each simulator kernel fires.
const kernelEvents = 1 << 20

// simKernel times the event loop through the sim package's public
// surface: one schedule + one dispatch per event with depth events
// outstanding, and one ticker firing per event. Both in ns per event.
func simKernel(parent obs.Span, depth int) (eventNS, tickerNS float64) {
	if depth < 1 {
		depth = 1
	}
	sp := parent.Child("sim.RunUntil")
	s := sim.New(1)
	n := 0
	fn := func() { n++ }
	for i := 0; i < depth; i++ {
		s.At(time.Duration(i)*time.Microsecond, fn)
	}
	t0 := time.Now()
	for i := 0; i < kernelEvents; i++ {
		s.After(time.Duration(depth)*time.Microsecond, fn)
		s.RunUntil(s.Now() + time.Microsecond)
	}
	eventNS = float64(time.Since(t0)) / kernelEvents
	sp.End()

	sp = parent.Child("sim.Every")
	s = sim.New(1)
	ticks := 0
	tk := s.Every(0, time.Microsecond, func() {
		ticks++
		if ticks >= kernelEvents {
			s.Stop()
		}
	})
	t0 = time.Now()
	s.Run()
	tickerNS = float64(time.Since(t0)) / kernelEvents
	tk.Stop()
	sp.End()
	return eventNS, tickerNS
}

// ranKernel times the RAN alone: one cell, 50 UEs, each handed a
// constant-rate packet stream for 5 simulated seconds, delivered packets
// discarded. The result is host ns per UE per slot.
func ranKernel(parent obs.Span, seed int64) float64 {
	const (
		nUEs     = 50
		simulate = 5 * time.Second
		interval = 10 * time.Millisecond
		size     = 1200
	)
	sp := parent.Child("ran.Handle")
	defer sp.End()
	s := sim.New(seed)
	cfg := ran.Defaults()
	r := ran.New(s, cfg, packet.Discard)
	var alloc packet.Alloc
	for i := 0; i < nUEs; i++ {
		u := r.AttachUE(uint32(i+1), ran.SchedCombined)
		flow := uint32(i + 1)
		s.Every(time.Duration(i)*time.Microsecond, interval, func() {
			u.Handle(alloc.New(packet.KindVideo, flow, size, s.Now()))
		})
	}
	t0 := time.Now()
	s.RunUntil(simulate)
	wall := time.Since(t0)
	slots := float64(simulate / cfg.SlotDuration)
	return float64(wall) / (nUEs * slots)
}
