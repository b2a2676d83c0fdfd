package scenario

// The topology refactor's load-bearing promise is that a single-UE
// Topology run is byte-identical to the pre-refactor monolithic Run: the
// same RNG stream creation order, the same event insertion order, the
// same per-packet corrected timings. Each literal below is the SHA-256 of
// compatDigest over that monolith's Result for one config, recorded
// before the monolith was deleted. The configs are the figure-shaped ones
// that exercise every stage (Fig 3: 5G + cross traffic + two-party; Fig
// 7: 5G and its emulated twin) plus the remaining stage branches.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

// compatDigest renders the determinism-relevant content of a Result as
// bytes, the rendering the monolith's literals were recorded with:
// per-packet corrected timings, delay summaries, receiver output and
// probe OWDs.
func compatDigest(res *Result) string {
	if res == nil {
		return "<nil>"
	}
	var b strings.Builder
	rep := res.Report
	fmt.Fprintf(&b, "packets=%d frames=%d\n", len(rep.Packets), len(rep.Frames()))
	fmt.Fprintf(&b, "video=%s\naudio=%s\n",
		rep.DelaySummary(packet.KindVideo), rep.DelaySummary(packet.KindAudio))
	for _, v := range rep.Packets {
		fmt.Fprintf(&b, "%d/%d/%s sent=%d core=%d recv=%d ul=%d tbs=%v\n",
			v.Flow, v.Seq, v.Kind, v.SentAt, v.CoreAt, v.ReceiverAt, v.ULDelay, v.TBIDs)
	}
	sender, core := rep.SpreadsMS()
	fmt.Fprintf(&b, "spreads=%d/%d\n", len(sender), len(core))
	fmt.Fprintf(&b, "rates=%v\n", res.Receiver.ReceiveRates())
	fmt.Fprintf(&b, "probe=%v\n", res.Prober.OWDsMS())
	fmt.Fprintf(&b, "scalars=%v %v\n", res.Receiver.FrameJitter, res.Receiver.Renderer.Stalls)
	if res.DLReceiver != nil {
		fmt.Fprintf(&b, "dlrates=%v\n", res.DLReceiver.ReceiveRates())
		fmt.Fprintf(&b, "dlowd=%v\n", res.DLReceiver.VideoOWDMS)
	}
	return b.String()
}

// fig3ShapedConfig is the Fig 3 workload (5G, two-party call, six
// competing cross UEs stepping through load phases), shortened so the
// golden comparison stays fast.
func fig3ShapedConfig() Config {
	cfg := Defaults()
	cfg.Duration = 6 * time.Second
	cfg.TwoParty = true
	cfg.CrossUEs = 6
	cfg.CrossPhases = []ran.CrossPhase{
		{Start: 0, Rate: 0},
		{Start: cfg.Duration / 4, Rate: 14 * units.Mbps},
		{Start: cfg.Duration / 2, Rate: 16 * units.Mbps},
		{Start: 3 * cfg.Duration / 4, Rate: 18 * units.Mbps},
	}
	return cfg
}

func assertGolden(t *testing.T, name string, cfg Config, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(compatDigest(Run(cfg))))
	// Encoder-noise floats are not FMA-pinned off amd64 (ROADMAP item 14).
	if got := hex.EncodeToString(sum[:]); runtime.GOARCH == "amd64" && got != want {
		t.Fatalf("%s: topology Run digest %s, the pre-refactor monolith recorded %s", name, got, want)
	}
}

// TestTopologyMatchesLegacyFig3 proves the 1-UE Topology path is
// byte-identical to the monolith for the Fig 3 workload.
func TestTopologyMatchesLegacyFig3(t *testing.T) {
	assertGolden(t, "fig3", fig3ShapedConfig(), "d276807f77a0dbb089b5d734bc05a297643a5fc27f2ef2715fa9749a3835d81b")
}

// TestTopologyMatchesLegacyFig7 covers the Fig 7 pair: the physical 5G
// baseline and its fixed-latency emulated twin driven by a TB schedule.
func TestTopologyMatchesLegacyFig7(t *testing.T) {
	base := Defaults()
	base.Duration = 6 * time.Second
	assertGolden(t, "fig7-5g", base, "18cfecd9a4c9799440adbfabcec9469083d6592919cc9cb8ac926cb1d7e35eb1")

	em := base
	em.Access = AccessEmulated
	assertGolden(t, "fig7-emulated", em, "814063b225e3007f788a9130f69a97712ff3bc0b95c2b626d08e36a24ed3f193")
}

// TestTopologyMatchesLegacyVariants sweeps the remaining stage branches
// the figure configs miss: alternate access networks, masked-GCC + ECN,
// delay/jitter injection, and NTP-estimated offsets.
func TestTopologyMatchesLegacyVariants(t *testing.T) {
	wifiCfg := Defaults()
	wifiCfg.Duration = 3 * time.Second
	wifiCfg.Access = AccessWiFi
	assertGolden(t, "wifi", wifiCfg, "f8d91df28c2777a4887bb30e88bbeb2a15aee3a9953b13b629ef927ffb87152b")

	wired := Defaults()
	wired.Duration = 3 * time.Second
	wired.Access = AccessWired
	assertGolden(t, "wired", wired, "52c5e062aee56619f12763518dc6861b2b431db18eca024256239faba9fcc6c9")

	masked := Defaults()
	masked.Duration = 3 * time.Second
	masked.Controller = CtlMaskedGCC
	masked.ECN = true
	masked.Spikes = []Spike{{Start: time.Second, End: 2 * time.Second, Extra: 40 * time.Millisecond}}
	masked.Jitters = []JitterEpisode{{Start: 2 * time.Second, End: 3 * time.Second, Amp: 10 * time.Millisecond}}
	assertGolden(t, "masked-ecn-inject", masked, "e1d971b011dfbf479ecad635c955a2cf954e3326bc9ecb84006eb006043cb400")

	ntp := Defaults()
	ntp.Duration = 3 * time.Second
	ntp.EstimateOffsets = true
	ntp.SenderClockOffset = 2 * time.Millisecond
	ntp.ReceiverClockOffset = -1 * time.Millisecond
	assertGolden(t, "ntp-estimated", ntp, "aeb911384eb63c486658c253b561c6e0f84fdc7d64f55ab69e0174fa8f684a74")
}
