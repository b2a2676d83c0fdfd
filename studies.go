package athena

import (
	"fmt"
	"time"

	"athena/internal/apps"
	"athena/internal/core"
	"athena/internal/experiment"
	"athena/internal/netem"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/scenario"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
)

func init() {
	experiment.MustRegister(
		Experiment{ID: "S1", Family: "study", Tags: []string{"study", "phy", "gcc"},
			Title:       "GCC across physical-layer contexts: duplexing and slice length (§5.1)",
			Description: "S1: the same GCC call over TDD slice lengths, 5G-FDD and LTE-FDD.",
			Plan:        planS1},
		Experiment{ID: "S2", Family: "study", Tags: []string{"study", "access", "smoke"},
			Title:       "One VCA, many access networks: artifact structure differs (§5.1)",
			Description: "S2: 5G, Wi-Fi, LEO satellite and wired each inject a different artifact signature.",
			Plan:        planS2},
		Experiment{ID: "S3", Family: "study", Tags: []string{"study", "cc", "learning"},
			Title:       "Learning-based CC still sees a clouded view on 5G (§1)",
			Description: "S3: a PCC-Vivace-style learner reads RAN latency artifacts as utility gradients.",
			Plan:        planS3},
		Experiment{ID: "S4", Family: "study", Tags: []string{"study", "apps"},
			Title:       "Application classes feel different RAN artifacts (§5.1)",
			Description: "S4: gaming input pays the grant cycle, bursts pay the spread, bulk upload barely notices.",
			Plan:        planS4},
		Experiment{ID: "S8", Family: "study", Tags: []string{"study", "apps", "workloads"},
			Title:       "Mixed-workload cell: per-app attribution through one shared RAN (§5.1)",
			Description: "S8: VCA, cloud gaming, bulk upload and audio-only share a cell; Athena attributes each family's delay separately.",
			Plan:        planS8},
		Experiment{ID: "S9", Family: "study", Tags: []string{"study", "apps", "sched"},
			Title:       "QoE-aware scheduling: app hints reorder the cell's grant budget (§5.2)",
			Description: "S9: the same mixed cell under default vs app-hint arbitration — interactive families gain, elastic bulk pays.",
			Plan:        planS9},
	)
}

// S1 is the §5.1 future-work study the paper commits to: "work toward a
// GCC simulator that evaluates video-conferencing behavior in various
// physical-layer contexts. ... different base stations use different
// duplexing strategies. Also, the wireless spectrum can be divided along
// multiple axes. Time slicing (as in TDD) is done using different slice
// lengths in differing frequency bands, and some cellular networks use
// Frequency Division Duplexing (FDD) for uplink and downlink, resulting
// in differing impacts on application-layer latencies."
//
// The same GCC-driven call runs over four PHY contexts; reported per
// context: delay-spread quantum, uplink delay quantiles, GCC phantom
// overuse, and achieved rate.
func S1PHYContexts(o Options) *FigureData { return experiment.Generate(planS1(o)) }

func planS1(o Options) Plan {
	fig := NewFigure("S1", "GCC across physical-layer contexts: duplexing and slice length (§5.1)")
	contexts := []struct {
		name string
		mut  func(*ran.Config)
	}{
		{"tdd-2.5ms (paper)", func(c *ran.Config) {}},
		{"tdd-5ms (long slice)", func(c *ran.Config) {
			c.SlotsPerPeriod = 10
		}},
		{"tdd-1.25ms (mmWave-like)", func(c *ran.Config) {
			// 120 kHz SCS: 125 µs slots, same DDDDU ratio, 625 µs period
			// scaled ×2 for a 1.25 ms UL cadence.
			c.SlotDuration = 250 * time.Microsecond
		}},
		{"fdd", func(c *ran.Config) {
			c.Duplex = ran.DuplexFDD
			// Same proactive *rate*: 1600 B per 2.5 ms becomes 320 B per
			// 0.5 ms slot.
			c.ProactiveTBS = 320
		}},
		{"lte-fdd", func(c *ran.Config) {
			lte := ran.LTEDefaults()
			// Preserve the study's channel parameters; take LTE's frame
			// structure and timing constants.
			lte.BLER = c.BLER
			lte.FadeMeanGood, lte.FadeMeanBad = c.FadeMeanGood, c.FadeMeanBad
			lte.FadeBLER, lte.FadeCapacityFactor = c.FadeBLER, c.FadeCapacityFactor
			lte.CellULRate = c.CellULRate
			*c = lte
		}},
	}
	cfgs := make([]Config, len(contexts))
	for i, ctx := range contexts {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(60 * time.Second)
		cfg.CaptureGCC = true
		ctx.mut(&cfg.RAN)
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		key := contexts[i].name
		sum := res.Report.DelaySummary(packet.KindVideo)
		_, coreSp := res.Report.SpreadsMS()
		part.Scalars["ul_p50_ms:"+key] = sum.P50
		part.Scalars["ul_p95_ms:"+key] = sum.P95
		part.Scalars["spread_p90_ms:"+key] = stats.QuantileInPlace(coreSp, 0.9)
		part.Scalars["overuse:"+key] = float64(res.GCC.OveruseCount)
		part.Scalars["rate_kbps:"+key] = res.GCC.TargetRate().Kbits()
		part.Scalars["quantum_ms:"+key] = float64(cfgs[i].RAN.ULPeriod()) / float64(time.Millisecond)
		part.Add(fmt.Sprintf("video UL delay CDF (x=ms): %s", key),
			stats.NewCDFInPlace(res.Report.ULDelaysMS(packet.KindVideo)).Points(30))
	}, func() {
		fig.Note("finer uplink cadence (short slices, FDD) shrinks the delay-spread quantum and the median uplink delay")
		fig.Note("but under channel fading, finer cadence also multiplies the gradient samples per trendline window and thins per-slot capacity, so GCC's phantom overuse does not automatically improve — the duplexing choice interacts with channel dynamics, which is precisely the §5.1 design space Athena exists to explore")
	})
}

// S2 is the §5.1 breadth study: the same VCA-over-GCC call across access
// technologies with fundamentally different artifact structure — the
// paper's 5G cell, a Wi-Fi-like contention channel, and a LEO-satellite
// path with handover-driven delay steps — plus the wired reference.
func S2AccessNetworks(o Options) *FigureData { return experiment.Generate(planS2(o)) }

func planS2(o Options) Plan {
	fig := NewFigure("S2", "One VCA, many access networks: artifact structure differs (§5.1)")
	accesses := []AccessKind{Access5G, AccessWiFi, AccessLEO, AccessWired}
	cfgs := make([]Config, len(accesses))
	for i, acc := range accesses {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(60 * time.Second)
		cfg.Access = acc
		cfg.CaptureGCC = true
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		key := string(accesses[i])
		sum := res.Report.DelaySummary(packet.KindVideo)
		part.Scalars["ul_p50_ms:"+key] = sum.P50
		part.Scalars["ul_p99_ms:"+key] = sum.P99
		part.Scalars["overuse:"+key] = float64(res.GCC.OveruseCount)
		part.Scalars["rate_kbps:"+key] = res.GCC.TargetRate().Kbits()
		// FrameJitter belongs to a Result another artifact may share:
		// quantile on a copy. FrameRates returns a fresh slice: quantile
		// in place.
		part.Scalars["frame_jitter_p50_ms:"+key] = stats.Quantile(res.Receiver.FrameJitter, 0.5)
		part.Scalars["fps_p50:"+key] = stats.QuantileInPlace(res.Receiver.Renderer.FrameRates(), 0.5)
		part.Add("video UL delay CDF (x=ms): "+key,
			stats.NewCDFInPlace(res.Report.ULDelaysMS(packet.KindVideo)).Points(30))
	}, func() {
		fig.Note("each access technology injects a different artifact: 5G quantizes and over-grants, Wi-Fi adds contention variance, LEO adds handover delay steps; only the wired path is artifact-free")
	})
}

// S3 tests the paper's §1 caution about learning-based congestion control
// ("While some proposals leverage machine learning-based approaches to
// deal with these hard-to-predict artifacts, we show here that they still
// largely see a clouded view of packet arrivals"): a PCC-Vivace-style
// online learner runs the same call on the wired reference and on the 5G
// cell. Reported per path: achieved rate, uplink p95, and the
// rate-decision oscillation (stddev of relative rate steps) — the
// learner's confusion metric.
func S3LearningCC(o Options) *FigureData { return experiment.Generate(planS3(o)) }

func planS3(o Options) Plan {
	fig := NewFigure("S3", "Learning-based CC still sees a clouded view on 5G (§1)")
	accesses := []AccessKind{AccessWired, Access5G}
	cfgs := make([]Config, len(accesses))
	for i, acc := range accesses {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(90 * time.Second)
		cfg.Access = acc
		cfg.Controller = scenario.CtlPCC
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		key := string(accesses[i])
		part.Scalars["rate_kbps:"+key] = stats.QuantileInPlace(res.Receiver.ReceiveRates(), 0.5)
		part.Scalars["ul_p95_ms:"+key] = res.Report.DelaySummary(packet.KindVideo).P95
		part.Scalars["decisions:"+key] = float64(res.PCC.Decisions)
		part.Scalars["down_decisions:"+key] = float64(res.PCC.DownDecisions)
		part.Scalars["step_stddev:"+key] = rateStepStddev(res.PCC.RateTrace)
		part.Add("PCC base rate kbps over decisions: "+key, tracePoints(res.PCC.RateTrace))
	}, func() {
		fig.Note("with identical capacity headroom, the learner achieves a lower rate and brakes more often on the 5G cell: RAN latency artifacts read as utility gradients")
	})
}

// rateStepStddev is the standard deviation of relative per-decision rate
// steps.
func rateStepStddev(trace []float64) float64 {
	if len(trace) < 2 {
		return 0
	}
	steps := make([]float64, 0, len(trace)-1)
	for i := 1; i < len(trace); i++ {
		steps = append(steps, (trace[i]-trace[i-1])/trace[i-1])
	}
	var r stats.Running
	for _, s := range steps {
		r.Add(s)
	}
	return r.Stddev()
}

func tracePoints(trace []float64) []stats.Point {
	pts := make([]stats.Point, len(trace))
	for i, v := range trace {
		pts[i] = stats.Point{X: float64(i), Y: v}
	}
	return pts
}

// S4 runs the §5.1 application-diversity study: the uplink traffic
// patterns of four application classes (cloud-gaming input, web browsing,
// bulk upload, VoD chunk requests) traverse the 5G cell under each grant
// strategy and the wired reference. Different artifacts hurt different
// classes: sporadic tiny packets pay the grant cycle, bursts pay the
// delay spread, bulk mostly doesn't care.
func S4AppDiversity(o Options) *FigureData { return experiment.Generate(planS4(o)) }

// planS4 plans no topology run: S4's grid drives application generators
// over bare cells and links, built and run in its render.
func planS4(o Options) Plan { return Plan{Render: func() *FigureData { return renderS4(o) }} }

func renderS4(o Options) *FigureData {
	fig := NewFigure("S4", "Application classes feel different RAN artifacts (§5.1)")
	classes := []apps.Class{apps.ClassGaming, apps.ClassWeb, apps.ClassUpload, apps.ClassVoD}
	type path struct {
		name  string
		sched ran.SchedulerKind
		wired bool
	}
	paths := []path{
		{"5g-combined", ran.SchedCombined, false},
		{"5g-bsr-only", ran.SchedBSROnly, false},
		{"wired", 0, true},
	}
	dur := o.Scaled(30 * time.Second)
	// Each cell of the grid owns its simulator, allocator and generator;
	// the grid runs in order on the sweep goroutine, beside the batch's
	// workers.
	for _, cl := range classes {
		for _, p := range paths {
			s := sim.New(o.SeedOrDefault())
			var alloc packet.Alloc
			var g *apps.Generator
			tap := packet.HandlerFunc(func(pk *packet.Packet) { g.OnArrival(pk, s.Now()) })
			var ingress packet.Handler
			if p.wired {
				ingress = netem.NewLink(s, "wired", 15*time.Millisecond, 20*units.Mbps, tap)
			} else {
				cell := ran.New(s, ran.Defaults(), tap)
				ingress = cell.AttachUE(1, p.sched)
			}
			g = apps.New(s, &alloc, cl, 1, s.NewStream(), ingress)
			g.Start(dur)
			s.RunUntil(dur + 2*time.Second)
			m := g.Metrics(dur)
			key := fmt.Sprintf("%s@%s", cl, p.name)
			fig.Scalars["p50_ms:"+key] = m.DelayP50MS
			fig.Scalars["p99_ms:"+key] = m.DelayP99MS
			switch cl {
			case apps.ClassGaming:
				fig.Scalars["late_inputs:"+key] = m.LateInputs
			case apps.ClassWeb, apps.ClassVoD:
				fig.Scalars["burst_p95_ms:"+key] = m.BurstP95MS
				fig.Scalars["burst_spread_p95_ms:"+key] = m.BurstSpreadP95
			case apps.ClassUpload:
				fig.Scalars["mbps:"+key] = m.ThroughputMbps
			}
		}
	}
	fig.Note("gaming input pays the grant machinery (proactive rescues it, BSR-only ruins it); web/VoD bursts pay the 2.5 ms spread; bulk upload barely notices — per-class sensitivity is the §5.1 matching problem")
	return fig
}

// scoreKind maps each workload family to the packet kind its primary
// uplink stream rides — the kind whose correlated delay summary is the
// family's RAN-side QoE signal.
func scoreKind(k scenario.WorkloadKind) packet.Kind {
	switch k {
	case scenario.WorkloadCloudGaming, scenario.WorkloadBulkTransfer:
		return packet.KindData
	case scenario.WorkloadAudioOnly:
		return packet.KindAudio
	}
	return packet.KindVideo
}

// S8MixedWorkloads is the workload-layer acceptance study: one cell
// carrying all four application families at once, every UE correlated
// through the same capture points, with per-family delay summaries,
// root-cause attribution, and the family's own QoE score — the paper's
// "and Beyond" claim made concrete.
func S8MixedWorkloads(o Options) *FigureData { return experiment.Generate(planS8(o)) }

func planS8(o Options) Plan {
	fig := NewFigure("S8", "Mixed-workload cell: per-app attribution through one shared RAN (§5.1)")
	top := scenario.NewTopology(8)
	top.Seed = o.SeedOrDefault()
	top.Duration = o.Scaled(12 * time.Second)
	top.MixWorkloads()
	return partsPlan(fig, []Topology{top}, func(_ int, res *TopologyResult, part *FigureData) {
		perFam := map[scenario.WorkloadKind][]float64{}
		for _, u := range res.UEs {
			key := fmt.Sprintf("%s:ue%d", u.Workload, u.ID)
			sum := u.Report.DelaySummary(scoreKind(u.Workload))
			part.Scalars["ul_p50_ms:"+key] = sum.P50
			part.Scalars["ul_p99_ms:"+key] = sum.P99
			att := u.Report.Attribute()
			for _, c := range []core.Cause{core.CauseQueueSlot, core.CauseBSR, core.CauseHARQ} {
				part.Scalars[fmt.Sprintf("%s_ms:%s", c, key)] = att.MeanMS(c)
			}
			for name, v := range u.Score.Scalars {
				part.Scalars[fmt.Sprintf("qoe_%s:%s", name, key)] = v
			}
			perFam[u.Workload] = append(perFam[u.Workload], sum.P50)
		}
		for fam, p50s := range perFam {
			part.Scalars["fam_ul_p50_ms:"+string(fam)] = stats.Quantile(p50s, 0.5)
		}
	}, func() {
		fig.Note("four families, one RAN: the correlator joins each family's own flows (media, input events, bulk data, Opus frames) without per-app plumbing — attribution stays per-UE, per-cause")
	})
}

// S9QoEScheduler runs the same mixed cell under the default arbitration
// and the StreamGuard-style app-hint scheduler: the study reports each
// family's QoE under both, making the trade explicit — interactive
// families gain timeliness, elastic bulk gives up throughput.
func S9QoEScheduler(o Options) *FigureData { return experiment.Generate(planS9(o)) }

func planS9(o Options) Plan {
	fig := NewFigure("S9", "QoE-aware scheduling: app hints reorder the cell's grant budget (§5.2)")
	scheds := []ran.SchedulerKind{ran.SchedCombined, ran.SchedQoEAware}
	tops := make([]Topology, len(scheds))
	for i, sched := range scheds {
		top := scenario.NewTopology(8)
		top.Seed = o.SeedOrDefault()
		top.Duration = o.Scaled(12 * time.Second)
		top.MixWorkloads()
		for u := range top.UEs {
			top.UEs[u].Sched = sched
		}
		// Background load so arbitration order decides who waits.
		top.CrossUEs = 2
		top.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 4 * units.Mbps}}
		tops[i] = top
	}
	headline := map[scenario.WorkloadKind]string{
		scenario.WorkloadVCA:          "video_owd_p95_ms",
		scenario.WorkloadCloudGaming:  "input_p95_ms",
		scenario.WorkloadBulkTransfer: "goodput_mbps",
		scenario.WorkloadAudioOnly:    "delay_p95_ms",
	}
	return partsPlan(fig, tops, func(i int, res *TopologyResult, part *FigureData) {
		for _, u := range res.UEs {
			key := fmt.Sprintf("%s:ue%d@%s", u.Workload, u.ID, scheds[i])
			part.Scalars["qoe_"+headline[u.Workload]+":"+key] = u.Score.Scalars[headline[u.Workload]]
			part.Scalars["ul_p95_ms:"+key] = u.Report.DelaySummary(scoreKind(u.Workload)).P95
		}
	}, func() {
		fig.Note("qoe-aware serves grant allocations in hint-tier order and reclaims unused speculative grants; compare each family's headline metric across '@%s' and '@%s'", scheds[0], scheds[1])
	})
}
