package athena

import (
	"fmt"
	"time"

	"athena/internal/core"
	"athena/internal/experiment"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/stats"
	"athena/internal/telemetry"
	"athena/internal/units"
)

func init() {
	experiment.MustRegister(
		Experiment{ID: "A1", Family: "ablation", Tags: []string{"ablation", "scheduling", "smoke"},
			Title:       "Ablation: BSR scheduling delay vs frame delay spread",
			Description: "A1: sweeping the ~10 ms BSR scheduling delay that roots Fig 5's spread distribution.",
			Plan:        planA1},
		Experiment{ID: "A2", Family: "ablation", Tags: []string{"ablation", "scheduling"},
			Title:       "Ablation: proactive grant size — spread vs waste tradeoff",
			Description: "A2: small proactive grants stretch the spread, large ones waste cell capacity.",
			Plan:        planA2},
		Experiment{ID: "A3", Family: "ablation", Tags: []string{"ablation", "harq"},
			Title:       "Ablation: BLER vs uplink delay tail",
			Description: "A3: each HARQ round adds 10 ms, so the p99 climbs in visible steps with loss.",
			Plan:        planA3},
		Experiment{ID: "A4", Family: "ablation", Tags: []string{"ablation", "correlator"},
			Title:       "Ablation: time-sync error vs packet-TB match accuracy",
			Description: "A4: how good NTP must be for Athena's cross-layer join to hold.",
			Plan:        planA4},
	)
}

// A1 sweeps the BSR scheduling delay (the ~10 ms of §3.1) and reports the
// resulting frame-level delay spread — the design constant DESIGN.md
// calls out as the root of Fig 5's distribution.
func A1(o Options) *FigureData { return experiment.Generate(planA1(o)) }

func planA1(o Options) Plan {
	fig := NewFigure("A1", "Ablation: BSR scheduling delay vs frame delay spread")
	delays := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond}
	cfgs := make([]Config, len(delays))
	for i, sd := range delays {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(30 * time.Second)
		cfg.RAN.BLER = 0
		cfg.RAN.FadeMeanBad = 0
		cfg.RAN.SchedDelay = sd
		// Pin the media rate high enough that frames outgrow the
		// proactive drain and the BSR cycle governs the spread.
		cfg.InitialRate, cfg.MinRate, cfg.MaxRate = 2*units.Mbps, 2*units.Mbps, 2*units.Mbps
		cfgs[i] = cfg
	}
	p90s := make([]float64, len(cfgs))
	return Plan{
		Runs: runs(cfgs...),
		Fold: func(i int, tr *TopologyResult) {
			_, coreSp := tr.SingleUE(cfgs[i]).Report.SpreadsMS()
			p90s[i] = stats.QuantileInPlace(coreSp, 0.9)
		},
		Render: func() *FigureData {
			var pts []stats.Point
			for i, p90 := range p90s {
				pts = append(pts, stats.Point{X: ms(delays[i]), Y: p90})
				fig.Scalars[fmt.Sprintf("spread_p90_ms@sched=%v", delays[i])] = p90
			}
			fig.Add("p90 core delay spread vs sched delay (x=ms)", pts)
			fig.Note("spread grows with the BSR scheduling delay: frames wait longer for the requested grant")
			return fig
		},
	}
}

// A2 sweeps the proactive grant size: small grants stretch the spread,
// large grants waste capacity (efficiency of proactive TBs drops).
func A2(o Options) *FigureData { return experiment.Generate(planA2(o)) }

func planA2(o Options) Plan {
	fig := NewFigure("A2", "Ablation: proactive grant size — spread vs waste tradeoff")
	sizes := []units.ByteCount{800, 1600, 3200, 6000}
	cfgs := make([]Config, len(sizes))
	for i, tbs := range sizes {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(30 * time.Second)
		cfg.RAN.BLER = 0
		cfg.RAN.FadeMeanBad = 0
		cfg.RAN.ProactiveTBS = tbs
		cfgs[i] = cfg
	}
	p90s := make([]float64, len(cfgs))
	effs := make([]float64, len(cfgs))
	return Plan{
		Runs: runs(cfgs...),
		Fold: func(i int, tr *TopologyResult) {
			res := tr.SingleUE(cfgs[i])
			_, coreSp := res.Report.SpreadsMS()
			var pro []telemetry.TBRecord
			for _, r := range res.RAN.Telemetry.ForUE(1) {
				if r.Grant == telemetry.GrantProactive {
					pro = append(pro, r)
				}
			}
			effs[i] = telemetry.WasteOf(pro).Efficiency()
			p90s[i] = stats.QuantileInPlace(coreSp, 0.9)
		},
		Render: func() *FigureData {
			var spreadPts, effPts []stats.Point
			for i, tbs := range sizes {
				spreadPts = append(spreadPts, stats.Point{X: float64(tbs), Y: p90s[i]})
				effPts = append(effPts, stats.Point{X: float64(tbs), Y: effs[i]})
				fig.Scalars[fmt.Sprintf("spread_p90_ms@tbs=%d", tbs)] = p90s[i]
				fig.Scalars[fmt.Sprintf("proactive_eff@tbs=%d", tbs)] = effs[i]
			}
			fig.Add("p90 spread ms vs proactive TBS bytes", spreadPts)
			fig.Add("proactive TB efficiency vs TBS bytes", effPts)
			fig.Note("bigger proactive grants shrink the spread but waste more of the cell — the §3.1 tension")
			return fig
		},
	}
}

// A3 sweeps the block error rate and reports the uplink delay tail: each
// HARQ round adds 10 ms, so the p99 climbs in visible steps.
func A3(o Options) *FigureData { return experiment.Generate(planA3(o)) }

func planA3(o Options) Plan {
	fig := NewFigure("A3", "Ablation: BLER vs uplink delay tail")
	blers := []float64{0, 0.05, 0.1, 0.2, 0.3}
	cfgs := make([]Config, len(blers))
	for i, bler := range blers {
		cfg := DefaultConfig()
		cfg.Seed = o.SeedOrDefault()
		cfg.Duration = o.Scaled(30 * time.Second)
		cfg.RAN.BLER = bler
		cfg.RAN.FadeMeanBad = 0
		cfgs[i] = cfg
	}
	p99s := make([]float64, len(cfgs))
	return Plan{
		Runs: runs(cfgs...),
		Fold: func(i int, tr *TopologyResult) {
			p99s[i] = tr.SingleUE(cfgs[i]).Report.DelaySummary(packet.KindVideo).P99
		},
		Render: func() *FigureData {
			var pts []stats.Point
			for i, p99 := range p99s {
				pts = append(pts, stats.Point{X: blers[i], Y: p99})
				fig.Scalars[fmt.Sprintf("ul_p99_ms@bler=%.2f", blers[i])] = p99
			}
			fig.Add("video uplink p99 ms vs BLER", pts)
			fig.Note("the delay tail climbs with loss in ~10 ms HARQ steps")
			return fig
		},
	}
}

// A4 sweeps the correlator's clock-sync error and reports packet↔TB
// matching accuracy — how good NTP needs to be for Athena's cross-layer
// join to hold.
func A4(o Options) *FigureData { return experiment.Generate(planA4(o)) }

// planA4 plans one single-UE call on an idle cell, then correlates its
// session feed again under increasing artificial sender-clock error and
// scores each join against the simulator's truth: the packets each
// successful TB attempt carried.
func planA4(o Options) Plan {
	fig := NewFigure("A4", "Ablation: time-sync error vs packet-TB match accuracy")
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(20 * time.Second)
	cfg.RAN = ran.Defaults()
	errs := []float64{0, 2, 5, 10, 20, 40}
	accs := make([]float64, len(errs))
	return Plan{
		Runs: runs(cfg),
		Fold: func(_ int, tr *TopologyResult) {
			in := tr.SessionStreams()[0].Input
			sender := in.Offsets[packet.PointSender]
			for i, e := range errs {
				in.Offsets = map[packet.Point]time.Duration{
					packet.PointSender: sender - time.Duration(e*float64(time.Millisecond)),
				}
				accs[i] = core.Correlate(in).MatchAccuracy(in.Sender, in.TBs)
			}
		},
		Render: func() *FigureData {
			var pts []stats.Point
			for i, errMS := range errs {
				pts = append(pts, stats.Point{X: errMS, Y: accs[i]})
				fig.Scalars[fmt.Sprintf("match_acc@err=%.0fms", errMS)] = accs[i]
			}
			fig.Add("packet-TB match accuracy vs sync error ms", pts)
			fig.Note("matching is exact with good sync and degrades once the error exceeds the slot/burst timescale")
			return fig
		},
	}
}
