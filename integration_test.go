package athena

// Integration tests: every figure driver at reduced scale, asserting the
// paper's headline *shape* claims hold end-to-end through the public API.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"athena/internal/core"
	"athena/internal/ran"
)

var itOpts = Options{Seed: 1, Scale: 0.5}

func TestIntegrationFig3UplinkDominatesJitter(t *testing.T) {
	fig := Fig3(itOpts)
	up := fig.Scalars["uplink_p95_ms"]
	down := fig.Scalars["downstream_p95_ms"]
	icmp := fig.Scalars["icmp_p95_ms"]
	if !(up > down && down > icmp) {
		t.Fatalf("expected uplink > downstream > icmp p95: %.1f %.1f %.1f", up, down, icmp)
	}
	// Takeaway (a): the 5G uplink is the primary jitter source — by a
	// wide margin, not a hair.
	if up < 2*icmp {
		t.Fatalf("uplink p95 %.1f should dwarf probe p95 %.1f", up, icmp)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("Fig3 series = %d", len(fig.Series))
	}
}

func TestIntegrationFig4AudioBelowVideo(t *testing.T) {
	fig := Fig4(itOpts)
	if fig.Scalars["audio_p50_ms"] >= fig.Scalars["video_p50_ms"] {
		t.Fatalf("audio median %.2f should be below video %.2f",
			fig.Scalars["audio_p50_ms"], fig.Scalars["video_p50_ms"])
	}
	// The long audio tail: p99 well above the median.
	if fig.Scalars["audio_p99_ms"] < 3*fig.Scalars["audio_p50_ms"] {
		t.Fatalf("audio should have a long tail: p50=%.2f p99=%.2f",
			fig.Scalars["audio_p50_ms"], fig.Scalars["audio_p99_ms"])
	}
}

func TestIntegrationFig5SpreadOnSlotGrid(t *testing.T) {
	fig := Fig5(itOpts)
	if got := fig.Scalars["fraction_on_2.5ms_grid"]; got < 0.99 {
		t.Fatalf("only %.2f of spreads on the 2.5 ms grid", got)
	}
	if fig.Scalars["core_spread_p90_ms"] <= 0 {
		t.Fatal("no core-side spread")
	}
}

func TestIntegrationFig6Schematic(t *testing.T) {
	fig := Fig6(itOpts)
	if fig.Scalars["ul_period_ms"] != 2.5 || fig.Scalars["sched_delay_ms"] != 10 {
		t.Fatalf("frame structure constants wrong: %v", fig.Scalars)
	}
	if len(fig.Notes) == 0 || !strings.Contains(fig.Notes[0], "[D][D][D][D][U]") {
		t.Fatalf("slot map missing: %v", fig.Notes)
	}
}

func TestIntegrationFig7FiveGLosesEverywhere(t *testing.T) {
	fig := Fig7(itOpts)
	checks := []struct {
		name     string
		fiveG    float64
		emulated float64
		lower    bool // true: 5G should be lower
	}{
		{"bitrate", fig.Scalars["5g_bitrate_p50_kbps"], fig.Scalars["em_bitrate_p50_kbps"], true},
		{"frame jitter", fig.Scalars["5g_jitter_p50_ms"], fig.Scalars["em_jitter_p50_ms"], false},
		{"frame rate", fig.Scalars["5g_fps_p50"], fig.Scalars["em_fps_p50"], true},
		{"ssim", fig.Scalars["5g_ssim_p50"], fig.Scalars["em_ssim_p50"], true},
	}
	for _, c := range checks {
		if math.IsNaN(c.fiveG) || math.IsNaN(c.emulated) {
			t.Fatalf("%s: NaN metric", c.name)
		}
		if c.lower && c.fiveG >= c.emulated {
			t.Errorf("%s: 5G %.3f should be below emulated %.3f", c.name, c.fiveG, c.emulated)
		}
		if !c.lower && c.fiveG <= c.emulated {
			t.Errorf("%s: 5G %.3f should be above emulated %.3f", c.name, c.fiveG, c.emulated)
		}
	}
}

func TestIntegrationFig8Adaptation(t *testing.T) {
	fig := Fig8(itOpts)
	if fig.Scalars["mode_changes"] < 1 {
		t.Fatal("delay spike did not change SVC mode")
	}
	if fig.Scalars["skip_events"] == 0 {
		t.Fatal("jitter episode did not cause frame skipping")
	}
	// Per-layer bitrate series exist for base + at least one enhancement.
	layers := 0
	for _, s := range fig.Series {
		if strings.HasPrefix(s.Name, "bitrate kbps:") {
			layers++
		}
	}
	if layers < 3 {
		t.Fatalf("only %d layer series", layers)
	}
}

func TestIntegrationFig9aOverGranting(t *testing.T) {
	fig := Fig9a(itOpts)
	if eff := fig.Scalars["requested_tb_efficiency"]; eff >= 0.95 {
		t.Fatalf("requested TBs fully used (%.2f); over-granting missing", eff)
	}
	if fig.Scalars["unused_requested_tbs"] == 0 {
		t.Fatal("no unused requested TBs")
	}
	// Drill-down rows include both packets and TBs.
	var pkts, tbs int
	for _, n := range fig.Notes {
		if strings.HasPrefix(n, "pkt") {
			pkts++
		}
		if strings.HasPrefix(n, "tb") {
			tbs++
		}
	}
	if pkts == 0 || tbs == 0 {
		t.Fatalf("drill-down incomplete: %d pkts %d tbs", pkts, tbs)
	}
}

func TestIntegrationFig9bHARQInflation(t *testing.T) {
	fig := Fig9b(itOpts)
	if fig.Scalars["packets_with_harq_inflation"] == 0 {
		t.Fatal("no HARQ-inflated packets at 25% BLER")
	}
	// Inflation quantum is 10 ms.
	if got := fig.Scalars["harq_inflation_p50_ms"]; math.Mod(got, 10) != 0 {
		t.Fatalf("median HARQ inflation %.1f not a 10 ms multiple", got)
	}
	if fig.Scalars["empty_tb_retransmissions"] == 0 {
		t.Fatal("empty-TB retransmissions not observed")
	}
}

func TestIntegrationFig10PhantomOveruse(t *testing.T) {
	fig := Fig10(itOpts)
	if fig.Scalars["overuse_detections"] == 0 {
		t.Fatal("idle 5G cell produced no phantom overuse")
	}
	if fig.Scalars["packets_traced"] < 1000 {
		t.Fatalf("trace too small: %v", fig.Scalars["packets_traced"])
	}
}

// The scale-10 row is the paper's own call length: each 450 s call sends
// more than 65 536 video packets, so its 16-bit transport-wide sequence
// wraps, and a packet past the wrap must not join the core sighting of
// the packet numbered alike one wrap earlier (a frame delay of −270 s).
func TestIntegrationM1HalvesFrameDelay(t *testing.T) {
	for _, o := range []Options{itOpts, {Seed: 1, Scale: 10}} {
		t.Run(fmt.Sprintf("scale-%g", o.Scale), func(t *testing.T) {
			fig := M1(o)
			ratio := fig.Scalars["appaware_over_default"]
			if ratio == 0 || ratio > 0.5 {
				t.Fatalf("app-aware/default frame delay ratio %.2f, want <= 0.5 (the §5.2 claim)", ratio)
			}
			// Oracle lower-bounds everything.
			if fig.Scalars["mean_ms:oracle"] > fig.Scalars["mean_ms:app-aware"]+0.01 {
				t.Fatal("oracle should lower-bound app-aware")
			}
			// BSR-only is the worst of the realistic strategies.
			if fig.Scalars["mean_ms:bsr-only"] <= fig.Scalars["mean_ms:proactive+bsr (default)"] {
				t.Fatal("bsr-only should be slower than the combined default")
			}
		})
	}
}

func TestIntegrationM2PHYInformed(t *testing.T) {
	fig := M2(itOpts)
	if fig.Scalars["overuse:gcc"] <= fig.Scalars["overuse:gcc-phy"] {
		t.Fatalf("phy-informed GCC should cut idle overuse: %v vs %v",
			fig.Scalars["overuse:gcc"], fig.Scalars["overuse:gcc-phy"])
	}
	if fig.Scalars["rate_kbps:gcc-phy"] < fig.Scalars["rate_kbps:gcc"] {
		t.Fatal("phy-informed GCC should sustain at least the plain rate")
	}
	// Under genuine load it must still back off (not run at the max).
	if fig.Scalars["overuse:gcc-phy+load"] == 0 {
		t.Fatal("phy-informed GCC blind to genuine congestion")
	}
}

func TestIntegrationM3Masking(t *testing.T) {
	fig := M3(itOpts)
	if fig.Scalars["overuse:gcc-masked"] >= fig.Scalars["overuse:gcc"] {
		t.Fatalf("masking should cut overuse: %v vs %v",
			fig.Scalars["overuse:gcc"], fig.Scalars["overuse:gcc-masked"])
	}
}

func TestIntegrationM4L4S(t *testing.T) {
	fig := M4(itOpts)
	// Under heavy fades, GCC sheds more of its clean-channel rate than
	// L4S does.
	gccDrop := fig.Scalars["rate_kbps:gcc@fade=clean"] - fig.Scalars["rate_kbps:gcc@fade=heavy"]
	l4sDrop := fig.Scalars["rate_kbps:l4s@fade=clean"] - fig.Scalars["rate_kbps:l4s@fade=heavy"]
	if gccDrop <= l4sDrop {
		t.Fatalf("GCC should shed more rate under fades: gcc=-%.0f l4s=-%.0f", gccDrop, l4sDrop)
	}
}

func TestIntegrationA1Monotone(t *testing.T) {
	fig := A1(itOpts)
	if fig.Scalars["spread_p90_ms@sched=5ms"] >= fig.Scalars["spread_p90_ms@sched=20ms"] {
		t.Fatalf("spread should grow with sched delay: %v", fig.Scalars)
	}
}

func TestIntegrationA2Tradeoff(t *testing.T) {
	fig := A2(itOpts)
	if fig.Scalars["spread_p90_ms@tbs=800"] <= fig.Scalars["spread_p90_ms@tbs=6000"] {
		t.Fatal("bigger proactive grants should shrink the spread")
	}
	if fig.Scalars["proactive_eff@tbs=800"] <= fig.Scalars["proactive_eff@tbs=6000"] {
		t.Fatal("bigger proactive grants should waste more")
	}
}

func TestIntegrationA3TailGrows(t *testing.T) {
	fig := A3(itOpts)
	if fig.Scalars["ul_p99_ms@bler=0.00"] >= fig.Scalars["ul_p99_ms@bler=0.30"] {
		t.Fatal("delay tail should grow with BLER")
	}
}

func TestIntegrationA4SyncBudget(t *testing.T) {
	fig := A4(itOpts)
	if fig.Scalars["match_acc@err=0ms"] < 0.99 {
		t.Fatalf("perfect sync should match exactly: %v", fig.Scalars["match_acc@err=0ms"])
	}
	if fig.Scalars["match_acc@err=5ms"] < 0.95 {
		t.Fatalf("NTP-grade sync should survive: %v", fig.Scalars["match_acc@err=5ms"])
	}
	if fig.Scalars["match_acc@err=40ms"] > 0.5 {
		t.Fatal("gross sync error should break matching")
	}
}

func TestIntegrationM1PredictiveScheduler(t *testing.T) {
	fig := M1(itOpts)
	pred := fig.Scalars["mean_ms:predictive (learned)"]
	def := fig.Scalars["mean_ms:proactive+bsr (default)"]
	oracle := fig.Scalars["mean_ms:oracle"]
	if pred == 0 || def == 0 {
		t.Fatalf("predictive row missing: %v", fig.Scalars)
	}
	if pred >= def {
		t.Fatalf("learned scheduler %v should beat default %v", pred, def)
	}
	// §5.2 inflation claim for the ML variant too.
	if pred-oracle > (def-oracle)*6/10 {
		t.Fatalf("predictive inflation %.2f not well under 60%% of default %.2f", pred-oracle, def-oracle)
	}
}

func TestIntegrationS1DuplexingShapes(t *testing.T) {
	fig := S1PHYContexts(itOpts)
	// Longer slices quantize coarser; FDD and mmWave-like cadence are
	// finer than the paper's 2.5 ms.
	paper := fig.Scalars["spread_p90_ms:tdd-2.5ms (paper)"]
	long := fig.Scalars["spread_p90_ms:tdd-5ms (long slice)"]
	mm := fig.Scalars["spread_p90_ms:tdd-1.25ms (mmWave-like)"]
	if mm >= paper {
		t.Fatalf("finer slices should shrink spread: mmWave %v vs paper %v", mm, paper)
	}
	if long < paper {
		t.Fatalf("longer slices should not shrink spread: long %v vs paper %v", long, paper)
	}
	if fig.Scalars["quantum_ms:fdd"] != 0.5 {
		t.Fatalf("FDD quantum: %v", fig.Scalars["quantum_ms:fdd"])
	}
}

func TestIntegrationS2AccessSignatures(t *testing.T) {
	fig := S2AccessNetworks(itOpts)
	// LEO pays propagation: highest median delay.
	if fig.Scalars["ul_p50_ms:leo"] <= fig.Scalars["ul_p50_ms:5g"] ||
		fig.Scalars["ul_p50_ms:leo"] <= fig.Scalars["ul_p50_ms:wifi"] {
		t.Fatalf("LEO should have the largest median: %v", fig.Scalars)
	}
	// The wired reference has the tightest tail.
	for _, k := range []string{"5g", "wifi", "leo"} {
		if fig.Scalars["ul_p99_ms:wired"] >= fig.Scalars["ul_p99_ms:"+k] {
			t.Fatalf("wired p99 should undercut %s: %v vs %v",
				k, fig.Scalars["ul_p99_ms:wired"], fig.Scalars["ul_p99_ms:"+k])
		}
	}
	// 5G's phantom overuse exceeds the wired reference's.
	if fig.Scalars["overuse:5g"] <= fig.Scalars["overuse:wired"] {
		t.Fatalf("5G should trip GCC more than wired: %v", fig.Scalars)
	}
}

func TestIntegrationFigureRendering(t *testing.T) {
	fig := Fig6(itOpts)
	out := fig.String()
	if !strings.Contains(out, "F6") || !strings.Contains(out, "==") {
		t.Fatalf("render: %q", out)
	}
}

func TestIntegrationPublicAPIRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 5 * 1e9 // 5s
	res := Run(cfg)
	if res.Report == nil || len(res.Report.Packets) == 0 {
		t.Fatal("public Run produced no report")
	}
	if res.Report.Attribute().Packets == 0 {
		t.Fatal("attribution empty")
	}

	// The multi-UE surface: every workload family on one cell, each UE
	// correlated through the shared captures.
	top := NewTopology(len(WorkloadKinds()))
	top.Duration = 2 * time.Second
	top.MixWorkloads()
	tr := RunTopology(top)
	for i, kind := range WorkloadKinds() {
		if u := tr.UEs[i]; u.Workload != kind || u.Report.Attribute().Packets == 0 {
			t.Fatalf("UE %d: workload %q with %d attributed packets, want %q with some",
				i, u.Workload, u.Report.Attribute().Packets, kind)
		}
	}
}

func TestIntegrationS3LearnerClouded(t *testing.T) {
	fig := S3LearningCC(itOpts)
	wired := fig.Scalars["rate_kbps:wired"]
	fiveG := fig.Scalars["rate_kbps:5g"]
	if fiveG >= wired {
		t.Fatalf("learner should achieve less on 5G: wired=%.0f 5g=%.0f", wired, fiveG)
	}
	if fiveG > 0.8*wired {
		t.Fatalf("5G penalty too small: wired=%.0f 5g=%.0f", wired, fiveG)
	}
	if fig.Scalars["decisions:5g"] < 20 {
		t.Fatal("too few decisions to judge")
	}
}

func TestIntegrationFig3DownlinkStable(t *testing.T) {
	fig := Fig3(itOpts)
	dl := fig.Scalars["dl_media_jitter_range_ms"]
	ul := fig.Scalars["uplink_jitter_range_ms"]
	if dl == 0 {
		t.Fatal("downlink media series missing (TwoParty not wired?)")
	}
	if dl >= ul {
		t.Fatalf("downlink jitter %.1f should be below uplink %.1f — takeaway (c)", dl, ul)
	}
}

func TestIntegrationS4AppSensitivity(t *testing.T) {
	fig := S4AppDiversity(itOpts)
	// Gaming: BSR-only ruins responsiveness, combined (proactive) saves it.
	if fig.Scalars["late_inputs:cloud-gaming@5g-bsr-only"] <=
		fig.Scalars["late_inputs:cloud-gaming@5g-combined"] {
		t.Fatalf("gaming late-input ordering wrong: %v", fig.Scalars)
	}
	// Web bursts disperse more on 5G than on the wired link (the 2.5 ms
	// grant trickle vs smooth serialization), independent of base
	// propagation.
	if fig.Scalars["burst_spread_p95_ms:web@5g-combined"] <= fig.Scalars["burst_spread_p95_ms:web@wired"] {
		t.Fatalf("web burst dispersion should be larger on 5G: %v vs %v",
			fig.Scalars["burst_spread_p95_ms:web@5g-combined"], fig.Scalars["burst_spread_p95_ms:web@wired"])
	}
	// Bulk upload throughput barely cares about the scheduler.
	a := fig.Scalars["mbps:upload@5g-combined"]
	b := fig.Scalars["mbps:upload@5g-bsr-only"]
	if a == 0 || b == 0 {
		t.Fatal("upload throughput missing")
	}
	if b < a*0.85 {
		t.Fatalf("upload should be scheduler-insensitive: combined %.1f vs bsr %.1f", a, b)
	}
}

func TestIntegrationS8BulkPaysTheBSRCycle(t *testing.T) {
	fig := S8MixedWorkloads(itOpts)
	// A backlogged bulk upload waits on requested grants; cloud gaming's
	// paced frames ride the proactive ones.
	bsrWait := func(kind WorkloadKind) []float64 {
		var out []float64
		prefix := string(core.CauseBSR) + "_ms:" + string(kind) + ":"
		for k, v := range fig.Scalars {
			if strings.HasPrefix(k, prefix) {
				out = append(out, v)
			}
		}
		return out
	}
	bulk, gaming := bsrWait(WorkloadBulkTransfer), bsrWait(WorkloadCloudGaming)
	if len(bulk) == 0 || len(gaming) == 0 {
		t.Fatalf("BSR-wait rows missing: bulk %v gaming %v", bulk, gaming)
	}
	if slices.Min(bulk) <= slices.Max(gaming) {
		t.Fatalf("every bulk UE's BSR wait %v should exceed every gaming UE's %v", bulk, gaming)
	}
}

func TestIntegrationS9QoEAwareTradesBulkForInteractive(t *testing.T) {
	fig := S9QoEScheduler(itOpts)
	def, qoe := "@"+ran.SchedCombined.String(), "@"+ran.SchedQoEAware.String()
	ues := 0
	for k, before := range fig.Scalars {
		if !strings.HasPrefix(k, "qoe_") || !strings.HasSuffix(k, def) {
			continue
		}
		after, ok := fig.Scalars[strings.TrimSuffix(k, def)+qoe]
		if !ok {
			t.Fatalf("%s has no %s counterpart", k, qoe)
		}
		ues++
		if strings.HasPrefix(k, "qoe_goodput_mbps:") {
			// The elastic tier pays for the others' timeliness.
			if after > before {
				t.Errorf("%s: bulk goodput rose %.2f -> %.2f under %s", k, before, after, qoe)
			}
		} else if after >= before {
			t.Errorf("%s: interactive headline %.1f -> %.1f, want lower under %s", k, before, after, qoe)
		}
	}
	if ues != 8 {
		t.Fatalf("compared %d UEs, want the 8 of the mixed cell", ues)
	}
}
