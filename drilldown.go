package athena

import (
	"fmt"
	"time"

	"athena/internal/experiment"
	"athena/internal/packet"
	"athena/internal/stats"
	"athena/internal/telemetry"
)

func init() {
	experiment.MustRegister(
		Experiment{ID: "F9a", Family: "figure", Tags: []string{"figure", "drilldown", "scheduling"},
			Title:       "Link-layer scheduling introduces frame-level delay spread in 2.5 ms increments",
			Description: "Fig 9a: a 120 ms window lining packets up against their TBs; over-granted requested TBs arrive unused.",
			Plan:        planFig9a},
		Experiment{ID: "F9b", Family: "figure", Tags: []string{"figure", "drilldown", "harq"},
			Title:       "Link-layer retransmissions inflate packet delay by 10 ms",
			Description: "Fig 9b: failed TBs retransmit 10 ms later, inflating carried packets in 10 ms multiples.",
			Plan:        planFig9b},
		Experiment{ID: "F10", Family: "figure", Tags: []string{"figure", "gcc"},
			Title:       "GCC on an idle private 5G cell detects phantom network overuse",
			Description: "Fig 10: the filtered delay gradient trips the adaptive threshold on a never-congested cell.",
			Plan:        planFig10},
	)
}

// Fig9a regenerates the scheduling drill-down of Fig 9a: a ~120 ms window
// of an idle cell, listing each packet's send/core-arrival times (the
// horizontal lines of the figure) and every TB with its grant type and
// used/unused state. The delay spread steps in 2.5 ms increments and some
// requested TBs arrive over-granted (unused).
func Fig9a(o Options) *FigureData { return experiment.Generate(planFig9a(o)) }

func planFig9a(o Options) Plan {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = 10 * time.Second
	// A clean window: no fading so the scheduling mechanics stand alone.
	cfg.RAN.BLER = 0
	cfg.RAN.FadeMeanBad = 0
	return partsPlan(NewFigure("F9a", "Link-layer scheduling introduces frame-level delay spread in 2.5 ms increments"), runs(cfg), func(_ int, tr *TopologyResult, fig *FigureData) {
		res := tr.SingleUE(cfg)
		from, to := 5*time.Second, 5*time.Second+120*time.Millisecond
		drilldown(fig, res, from, to)

		// Over-granting evidence across the whole run.
		var requested []telemetry.TBRecord
		for _, r := range res.RAN.Telemetry.ForUE(1) {
			if r.Grant == telemetry.GrantRequested {
				requested = append(requested, r)
			}
		}
		w := telemetry.WasteOf(requested)
		fig.Scalars["requested_tb_efficiency"] = w.Efficiency()
		fig.Scalars["unused_requested_tbs"] = float64(w.EmptyTBs)
		fig.Note("requested TBs arrive ~10 ms after the BSR; proactive TBs drained the buffer meanwhile, so %d requested TBs carried nothing", w.EmptyTBs)
	}, nil)
}

// Fig9b regenerates the retransmission drill-down of Fig 9b: a lossy
// window where failed TBs are retransmitted 10 ms later, inflating the
// delay of the packets they carry by 10 ms multiples.
func Fig9b(o Options) *FigureData { return experiment.Generate(planFig9b(o)) }

func planFig9b(o Options) Plan {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = 10 * time.Second
	cfg.RAN.BLER = 0.25 // high-interference episode
	cfg.RAN.FadeMeanBad = 0
	return partsPlan(NewFigure("F9b", "Link-layer retransmissions inflate packet delay by 10 ms"), runs(cfg), func(_ int, tr *TopologyResult, fig *FigureData) {
		res := tr.SingleUE(cfg)
		from, to := 5*time.Second, 5*time.Second+160*time.Millisecond
		drilldown(fig, res, from, to)

		// HARQ inflation statistics.
		var inflations []float64
		for _, v := range res.Report.Packets {
			if v.HARQDelay > 0 {
				inflations = append(inflations, float64(v.HARQDelay)/float64(time.Millisecond))
			}
		}
		fig.Scalars["packets_with_harq_inflation"] = float64(len(inflations))
		if len(inflations) > 0 {
			fig.Scalars["harq_inflation_p50_ms"] = stats.QuantileInPlace(inflations, 0.5)
		}
		retxEmpty := 0
		for _, r := range res.RAN.Telemetry.ForUE(1) {
			if r.IsRetx() && !r.Used() {
				retxEmpty++
			}
		}
		fig.Scalars["empty_tb_retransmissions"] = float64(retxEmpty)
		fig.Note("the base station also mandates retransmission of empty TBs (%d observed), wasting bandwidth", retxEmpty)
	}, nil)
}

// drilldown emits the Fig 9 content for [from, to): packet rows and TB
// rows, with packets tied to the TBs that carried them.
func drilldown(fig *FigureData, res *Result, from, to time.Duration) {
	for _, v := range res.Report.Packets {
		if !v.SeenCore || v.SentAt < from || v.SentAt >= to {
			continue
		}
		if v.Kind != packet.KindVideo && v.Kind != packet.KindAudio {
			continue
		}
		fig.Note("pkt %-5s seq=%-5d sent=%7.2fms core=%7.2fms owd=%6.2fms tbs=%v grant=%v harq=+%.0fms",
			v.Kind, v.Seq,
			ms(v.SentAt-from), ms(v.CoreAt-from), ms(v.ULDelay),
			v.TBIDs, v.GrantKind, ms(v.HARQDelay))
	}
	for _, tb := range res.RAN.Telemetry.Window(from, to) {
		if tb.UE != 1 {
			continue
		}
		state := "used"
		if !tb.Used() {
			state = "UNUSED"
		}
		tag := ""
		if tb.Failed {
			tag = " FAILED"
		}
		if tb.IsRetx() {
			tag += fmt.Sprintf(" RTX#%d", tb.HARQRound)
		}
		fig.Note("tb  %-9s id=%-5d at=%7.2fms tbs=%5d used=%5d %s%s",
			tb.Grant, tb.TBID, ms(tb.At-from), int64(tb.TBS), int64(tb.UsedBytes), state, tag)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Fig10 regenerates the GCC phantom-overuse demonstration of Fig 10: the
// per-packet filtered delay gradient, the (slope-scaled) adaptive
// threshold, and the overuse detections, on an idle cell where the mobile
// is the only user — the gradient fluctuates and trips the detector even
// though the network is never congested.
func Fig10(o Options) *FigureData { return experiment.Generate(planFig10(o)) }

func planFig10(o Options) Plan {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(2 * time.Minute)
	cfg.CaptureGCC = true
	return partsPlan(NewFigure("F10", "GCC on an idle private 5G cell detects phantom network overuse"), runs(cfg), func(_ int, tr *TopologyResult, fig *FigureData) {
		res := tr.SingleUE(cfg)
		var trend, thrU, thrL, over []stats.Point
		for _, tp := range res.GCC.Trace {
			x := float64(tp.PacketIndex)
			trend = append(trend, stats.Point{X: x, Y: tp.Trend})
			thrU = append(thrU, stats.Point{X: x, Y: tp.Threshold})
			thrL = append(thrL, stats.Point{X: x, Y: -tp.Threshold})
			if tp.Overuse {
				over = append(over, stats.Point{X: x, Y: tp.Trend})
			}
		}
		fig.Add("filtered delay gradient", trend)
		fig.Add("threshold (+)", thrU)
		fig.Add("threshold (-)", thrL)
		fig.Add("overuse detections", over)
		fig.Scalars["overuse_detections"] = float64(res.GCC.OveruseCount)
		fig.Scalars["packets_traced"] = float64(len(res.GCC.Trace))
		fig.Note("%d overuse detections on an idle, never-congested cell — phantom congestion misleads GCC", res.GCC.OveruseCount)
	}, nil)
}
