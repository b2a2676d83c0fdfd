package athena

import (
	"time"

	"athena/internal/experiment"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/rtp"
	"athena/internal/scenario"
	"athena/internal/stats"
	"athena/internal/units"
)

func init() {
	experiment.MustRegister(
		Experiment{ID: "F3", Family: "figure", Tags: []string{"figure", "delay", "probe", "smoke"},
			Title:       "One-Way Delay in ICMP and Zoom RTP Media Traffic",
			Description: "Fig 3: the 5G uplink dominates jitter; probes, WAN and the downlink stay low and stable.",
			Gen:         Fig3},
		Experiment{ID: "F4", Family: "figure", Tags: []string{"figure", "delay", "media"},
			Title:       "Zoom audio experiences lower delay than video (RAN delay CDF)",
			Description: "Fig 4: audio's single small packets beat video's multi-packet frames through the RAN.",
			Gen:         Fig4},
		Experiment{ID: "F5", Family: "figure", Tags: []string{"figure", "delay", "scheduling"},
			Title:       "Delay spread introduced in the RAN uplink",
			Description: "Fig 5: core-side delay spread steps on the 2.5 ms UL-slot grid.",
			Gen:         Fig5},
		Experiment{ID: "F6", Family: "figure", Tags: []string{"figure", "schematic"},
			Title:       "5G frame structure: DL/UL switching and BSR-based uplink transmission",
			Description: "Fig 6: the TDD frame structure and BSR/grant timeline, rendered from live cell config.",
			Gen:         Fig6},
		Experiment{ID: "F7", Family: "figure", Tags: []string{"figure", "qoe"},
			Title:       "5G degradation: QoE vs wired network with equal emulated capacity",
			Description: "Fig 7: the same call loses on bitrate, jitter, frame rate and SSIM versus an equal-capacity wired link.",
			Gen:         Fig7},
		Experiment{ID: "F8", Family: "figure", Tags: []string{"figure", "adaptation", "media"},
			Title:       "Zoom adaptation: frame-rate reaction to delay and jitter",
			Description: "Fig 8: a >1 s delay episode forces the 14 fps SVC set; a jitter episode causes transient skipping.",
			Gen:         Fig8},
	)
}

// cdfPoints renders a sample set as CDF curve points.
func cdfPoints(xs []float64, n int) []stats.Point {
	return stats.NewCDF(xs).Points(n)
}

// Fig3 regenerates the one-way-delay time series of Fig 3: RTP sender→core
// (the 5G uplink), RTP core→receiver (WAN + SFU), and ICMP core→SFU→core
// probes, under the paper's cross-traffic phase schedule (time-compressed).
// Takeaway to reproduce: the uplink is the dominant jitter source; probes
// and the downstream segment stay low and stable.
func Fig3(o Options) *FigureData {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(2 * time.Minute)
	cfg.TwoParty = true // the far party's stream exercises the downlink
	cfg.CrossUEs = 6
	q := cfg.Duration / 4
	cfg.CrossPhases = []ran.CrossPhase{
		{Start: 0, Rate: 0},
		{Start: q, Rate: 14 * units.Mbps},
		{Start: 2 * q, Rate: 16 * units.Mbps},
		{Start: 3 * q, Rate: 18 * units.Mbps},
	}
	res := Run(cfg)

	fig := NewFigure("F3", "One-Way Delay in ICMP and Zoom RTP Media Traffic")
	up := stats.NewSeries("rtp-1-2")
	down := stats.NewSeries("rtp-2-3*-4")
	for _, v := range res.Report.Packets {
		if v.Kind != packet.KindVideo && v.Kind != packet.KindAudio {
			continue
		}
		if v.SeenCore {
			up.Add(v.SentAt, float64(v.ULDelay)/float64(time.Millisecond))
		}
		if v.SeenRecv && v.SeenCore {
			down.Add(v.CoreAt, float64(v.WANDelay)/float64(time.Millisecond))
		}
	}
	icmp := stats.NewSeries("icmp-2-3-1")
	for _, r := range res.Prober.Results {
		icmp.Add(r.SentAt, float64(r.OWD())/float64(time.Millisecond))
	}
	fig.Add("RTP 1-2 (uplink) OWD ms", up.Bin(time.Second, stats.Mean))
	fig.Add("RTP 2-3*-4 OWD ms", down.Bin(time.Second, stats.Mean))
	fig.Add("ICMP 2-3-1 OWD ms", icmp.Bin(time.Second, stats.Mean))

	upS := stats.Summarize(up.Values())
	downS := stats.Summarize(down.Values())
	icmpS := stats.Summarize(icmp.Values())
	fig.Scalars["uplink_p95_ms"] = upS.P95
	fig.Scalars["downstream_p95_ms"] = downS.P95
	fig.Scalars["icmp_p95_ms"] = icmpS.P95
	fig.Scalars["uplink_jitter_range_ms"] = upS.P99 - upS.P10
	fig.Note("uplink jitter range (p99-p10) %.1f ms vs downstream %.1f ms vs probes %.1f ms",
		upS.P99-upS.P10, downS.P99-downS.P10, icmpS.P99-icmpS.P10)

	// Takeaway (c): the 5G RAN *downlink* also provides low and stable
	// delay — measured on the far party's media stream.
	if res.DLReceiver != nil && len(res.DLReceiver.VideoOWDMS) > 0 {
		dlS := stats.Summarize(res.DLReceiver.VideoOWDMS)
		fig.Scalars["dl_media_p95_ms"] = dlS.P95
		fig.Scalars["dl_media_jitter_range_ms"] = dlS.P99 - dlS.P10
		fig.Note("5G downlink media jitter range %.1f ms — no BSR cycle, no grant trickle", dlS.P99-dlS.P10)
	}
	return fig
}

// Fig4 regenerates the audio-vs-video RAN-delay CDFs of Fig 4. Audio
// samples (single small packets) are less delayed; video's multi-packet
// frames absorb the scheduling delay spread.
func Fig4(o Options) *FigureData {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(90 * time.Second)
	res := Run(cfg)

	fig := NewFigure("F4", "Zoom audio experiences lower delay than video (RAN delay CDF)")
	// The extractors return fresh slices, so each sample set sorts once
	// in place and serves curve points and every quantile from that sort.
	audio := stats.NewCDFInPlace(res.Report.ULDelaysMS(packet.KindAudio))
	video := stats.NewCDFInPlace(res.Report.ULDelaysMS(packet.KindVideo))
	fig.Add("audio CDF (x=ms)", audio.Points(40))
	fig.Add("video CDF (x=ms)", video.Points(40))
	fig.Scalars["audio_p50_ms"] = audio.Quantile(0.5)
	fig.Scalars["video_p50_ms"] = video.Quantile(0.5)
	fig.Scalars["audio_p99_ms"] = audio.Quantile(0.99)
	fig.Note("audio median below video median; both share a long tail from fades/retransmissions")
	return fig
}

// Fig5 regenerates the delay-spread CDFs of Fig 5 (sender vs 5G core) on
// an idle cell. The core-side spread steps in 2.5 ms increments — the UL
// slot period.
func Fig5(o Options) *FigureData {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(90 * time.Second)
	// The paper computes Fig 5 over a no-cross-traffic period.
	res := Run(cfg)

	fig := NewFigure("F5", "Delay spread introduced in the RAN uplink")
	sender, coreSp := res.Report.SpreadsMS()
	coreCDF := stats.NewCDFInPlace(coreSp)
	fig.Add("sender spread CDF (x=ms)", stats.NewCDFInPlace(sender).Points(30))
	fig.Add("5G-core spread CDF (x=ms)", coreCDF.Points(30))
	fig.Scalars["core_spread_p90_ms"] = coreCDF.Quantile(0.9)
	// Verify the 2.5 ms quantization and report it.
	quantized := 0
	for _, sp := range coreCDF.Values() {
		if r := sp / 2.5; r == float64(int(r)) {
			quantized++
		}
	}
	fig.Scalars["fraction_on_2.5ms_grid"] = float64(quantized) / float64(len(coreSp))
	fig.Note("core-side spreads fall on the 2.5 ms UL-slot grid (%d/%d)", quantized, len(coreSp))
	return fig
}

// Fig6 renders the TDD frame structure and BSR/grant timeline (the
// paper's schematic, emitted from the live cell configuration).
func Fig6(o Options) *FigureData {
	cfg := DefaultConfig()
	fig := NewFigure("F6", "5G frame structure: DL/UL switching and BSR-based uplink transmission")
	fig.Note("%s", cfg.RAN.FrameStructure())
	fig.Scalars["ul_period_ms"] = float64(cfg.RAN.ULPeriod()) / float64(time.Millisecond)
	fig.Scalars["sched_delay_ms"] = float64(cfg.RAN.SchedDelay) / float64(time.Millisecond)
	fig.Scalars["harq_rtt_ms"] = float64(cfg.RAN.HARQRTT) / float64(time.Millisecond)
	return fig
}

// Fig7 regenerates the four QoE CDFs of Fig 7: the same call over the 5G
// cell versus a fixed-latency wired link replaying the 5G run's TB-size
// capacity schedule. 5G should lose on all four metrics.
func Fig7(o Options) *FigureData {
	base := DefaultConfig()
	base.Seed = o.SeedOrDefault()
	base.Duration = o.Scaled(2 * time.Minute)
	base.CrossUEs = 6
	q := base.Duration / 4
	base.CrossPhases = []ran.CrossPhase{
		{Start: 0, Rate: 0},
		{Start: q, Rate: 14 * units.Mbps},
		{Start: 2 * q, Rate: 16 * units.Mbps},
		{Start: 3 * q, Rate: 18 * units.Mbps},
	}
	em := base
	em.Emulated = true
	// The paper's baseline uses tc with the cellular capacity "calculated
	// from the physical transport block sizes": the cell's per-slot TBS
	// capability as a constant rate, at a fixed 15 ms latency. (The
	// per-slot granted trace is available via scenario.TBSchedule for
	// replay studies, but grants track demand, not capacity.)
	em.EmulatedSchedule = []units.ByteCount{base.RAN.SlotCapacity()}
	// The two calls are independent, so they run concurrently; the 5G
	// baseline is also the config several mitigation studies reuse, so it
	// simulates once per process.
	rs := RunAll([]Config{base, em})
	g5, emr := rs[0], rs[1]

	fig := NewFigure("F7", "5G degradation: QoE vs wired network with equal emulated capacity")
	// Rate and fps extractors return fresh slices (in-place CDFs); jitter
	// and SSIMs() belong to the shared memoized Result, so those copy.
	g5Rate := stats.NewCDFInPlace(g5.Receiver.ReceiveRates())
	emRate := stats.NewCDFInPlace(emr.Receiver.ReceiveRates())
	g5Jit := stats.NewCDF(g5.Receiver.FrameJitter)
	emJit := stats.NewCDF(emr.Receiver.FrameJitter)
	g5FPS := stats.NewCDFInPlace(g5.Receiver.Renderer.FrameRates())
	emFPS := stats.NewCDFInPlace(emr.Receiver.Renderer.FrameRates())
	g5SSIM := stats.NewCDF(g5.Receiver.Renderer.SSIMs())
	emSSIM := stats.NewCDF(emr.Receiver.Renderer.SSIMs())
	fig.Add("5G receive bitrate CDF (x=kbps)", g5Rate.Points(30))
	fig.Add("emulated receive bitrate CDF (x=kbps)", emRate.Points(30))
	fig.Add("5G frame jitter CDF (x=ms)", g5Jit.Points(30))
	fig.Add("emulated frame jitter CDF (x=ms)", emJit.Points(30))
	fig.Add("5G frame rate CDF (x=fps)", g5FPS.Points(30))
	fig.Add("emulated frame rate CDF (x=fps)", emFPS.Points(30))
	fig.Add("5G SSIM CDF", g5SSIM.Points(30))
	fig.Add("emulated SSIM CDF", emSSIM.Points(30))

	fig.Scalars["5g_bitrate_p50_kbps"] = g5Rate.Quantile(0.5)
	fig.Scalars["em_bitrate_p50_kbps"] = emRate.Quantile(0.5)
	fig.Scalars["5g_jitter_p50_ms"] = g5Jit.Quantile(0.5)
	fig.Scalars["em_jitter_p50_ms"] = emJit.Quantile(0.5)
	fig.Scalars["5g_fps_p50"] = g5FPS.Quantile(0.5)
	fig.Scalars["em_fps_p50"] = emFPS.Quantile(0.5)
	fig.Scalars["5g_ssim_p50"] = g5SSIM.Quantile(0.5)
	fig.Scalars["em_ssim_p50"] = emSSIM.Quantile(0.5)
	fig.Note("5G delivers lower bitrate, higher media jitter, lower frame rate and lower SSIM than the equal-capacity wired baseline")
	return fig
}

// Fig8 regenerates the Zoom adaptation time series of Fig 8: per-SVC-layer
// bitrates, frame rate, and delay, with a >1 s delay episode (→ permanent
// 14 fps downgrade) and a jitter episode (→ transient ~20 fps skipping).
func Fig8(o Options) *FigureData {
	cfg := DefaultConfig()
	cfg.Seed = o.SeedOrDefault()
	cfg.Duration = o.Scaled(3 * time.Minute)
	third := cfg.Duration / 6
	cfg.Spikes = []Spike{{Start: 2 * third, End: 2*third + 8*time.Second, Extra: 1100 * time.Millisecond}}
	cfg.Jitters = []JitterEpisode{{Start: 4 * third, End: 5 * third, Amp: 130 * time.Millisecond}}
	res := Run(cfg)

	fig := NewFigure("F8", "Zoom adaptation: frame-rate reaction to delay and jitter")
	for _, l := range []rtp.SVCLayer{rtp.LayerBase, rtp.LayerLowFPSEnhancement, rtp.LayerHighFPSEnhancement, rtp.LayerAudio} {
		if pts := res.Receiver.LayerRateSeries(l); pts != nil {
			fig.Add("bitrate kbps: "+l.String(), pts)
		}
	}
	fig.Add("frame rate fps", res.Receiver.Renderer.FrameRateSeries())
	fig.Add("sender OWD ms", res.Sender.OWDSeries.Bin(time.Second, stats.Mean))
	fig.Add("encoder mode fps", res.Sender.ModeSeries.Bin(time.Second, stats.MaxOf))
	fig.Scalars["mode_changes"] = float64(res.Sender.Adapt().ModeChanges())
	fig.Scalars["skip_events"] = float64(res.Sender.SkipEvents)
	fig.Note("delay episode switches the SVC layer set to 14 fps; jitter episode causes transient frame skipping")
	return fig
}

// Spike and JitterEpisode re-export the scenario injection types for
// custom experiments.
type (
	Spike         = scenario.Spike
	JitterEpisode = scenario.JitterEpisode
)
