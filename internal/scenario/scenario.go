// Package scenario wires the full Athena testbed of Fig 2: VCA senders
// behind a private 5G cell (or the paper's fixed-latency emulated
// baseline), the mobile core, a WAN hop to the conferencing SFU, the
// receivers, ICMP probes from the core, NTP-imperfect host clocks,
// passive captures at all four points, and the PHY telemetry stream —
// then runs the Athena correlator over the collected traces.
//
// The testbed is assembled from composable stage builders (see
// topology.go): an access stage (5G / Wi-Fi / LEO / wired), a wired-path
// stage (core → WAN → SFU), per-UE endpoint stages (VCA sender/receiver
// + congestion controller) and a capture plane. Topology composes N such
// UEs on one cell; Config / Run is the single-UE compatibility surface
// every figure driver uses.
package scenario

import (
	"time"

	"athena/internal/packet"
	"athena/internal/probe"
	"athena/internal/ran"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
	"athena/internal/wifi"
)

// ControllerKind names a congestion-control choice.
type ControllerKind string

// Supported controllers.
const (
	CtlGCC       ControllerKind = "gcc"
	CtlNADA      ControllerKind = "nada"
	CtlSCReAM    ControllerKind = "scream"
	CtlLossBased ControllerKind = "loss"
	CtlL4S       ControllerKind = "l4s"
	CtlPHYAware  ControllerKind = "gcc-phy"  // §5.3: telemetry-informed GCC
	CtlMaskedGCC ControllerKind = "gcc-mask" // §5.3: RAN rewrites feedback
	CtlPCC       ControllerKind = "pcc"      // learning-based (§1's caution)
)

// Spike injects extra one-way delay on the uplink-core segment during
// [Start, End) — used to reproduce Fig 8's >1 s delay episode.
type Spike struct {
	Start, End time.Duration
	Extra      time.Duration
}

// JitterEpisode injects uniform random extra delay up to Amp during
// [Start, End) — Fig 8's jitter episode.
type JitterEpisode struct {
	Start, End time.Duration
	Amp        time.Duration
}

// AccessKind selects the access technology the sender sits behind — the
// §5.1 breadth axis ("4G and 5G ..., Wi-Fi, satellite networks").
type AccessKind string

// Access technologies.
const (
	Access5G    AccessKind = "5g"    // the paper's private cell (default)
	AccessWiFi  AccessKind = "wifi"  // CSMA/CA contention channel
	AccessLEO   AccessKind = "leo"   // satellite path with handovers
	AccessWired AccessKind = "wired" // clean fixed-latency reference
)

// Config describes one single-UE testbed run.
type Config struct {
	Seed     int64
	Duration time.Duration

	// Access selects the uplink technology; empty means Access5G.
	// Emulated=true (the Fig 7 baseline) overrides it with the
	// TB-schedule-driven wired link.
	Access AccessKind
	// WiFi parameterizes the AccessWiFi uplink.
	WiFi wifi.Config

	// RAN path (default) or emulated wired baseline (Fig 7).
	RAN             ran.Config
	Sched           ran.SchedulerKind
	CrossUEs        int
	CrossPhases     []ran.CrossPhase
	Emulated        bool
	EmulatedLatency time.Duration
	// EmulatedSchedule is the per-2.5 ms byte budget replayed from a 5G
	// run's TB trace (the paper's tc-based capacity emulation).
	EmulatedSchedule []units.ByteCount

	Controller  ControllerKind
	InitialRate units.BitRate
	MinRate     units.BitRate
	MaxRate     units.BitRate
	AttachMeta  bool
	CaptureGCC  bool // record the Fig 10 per-packet trace
	ECN         bool // mark media ECT(1); the core link CE-marks (M4)

	// TwoParty adds the far participant's media stream: a remote sender
	// whose video/audio traverse the WAN and the 5G *downlink* to a
	// receiver on the UE host, with its RTCP feedback riding the UE
	// uplink (competing with the local media). Only meaningful on the
	// Access5G path; it verifies the paper's takeaway (c) that the
	// downlink stays low and stable while the uplink jitters.
	TwoParty bool

	Spikes  []Spike
	Jitters []JitterEpisode

	// Clock errors. Zero values mean perfect NTP sync.
	SenderClockOffset   time.Duration
	ReceiverClockOffset time.Duration

	// EstimateOffsets runs NTP-style exchanges during the call (the
	// sender's ride the real 5G path, asymmetry and all) and hands the
	// correlator the *estimated* offsets instead of the configured truth
	// — the full methodology loop, error sources included.
	EstimateOffsets bool

	ProbeInterval time.Duration
}

// Defaults fills a baseline 20-minute-style config (duration shortened by
// callers as needed). The channel defaults include light fading — the
// paper's cell serves a real office environment where retransmissions
// "occur frequently" (§3.2); a sterile zero-error channel would hide the
// very artifacts Athena exists to explain.
func Defaults() Config {
	rcfg := ran.Defaults()
	rcfg.BLER = 0.02
	rcfg.FadeMeanGood = 2 * time.Second
	rcfg.FadeMeanBad = 300 * time.Millisecond
	rcfg.FadeBLER = 0.50
	rcfg.FadeCapacityFactor = 0.15
	return Config{
		Seed:        1,
		Duration:    30 * time.Second,
		RAN:         rcfg,
		Sched:       ran.SchedCombined,
		Controller:  CtlGCC,
		InitialRate: 800 * units.Kbps,
		MinRate:     100 * units.Kbps,
		// Zoom's video rate tops out near 1.5 Mbps at this resolution
		// (Fig 7a's axis); the cap keeps the VCA below cell capacity so
		// QoE differences come from RAN mechanics, not self-congestion.
		MaxRate:         1700 * units.Kbps,
		EmulatedLatency: 15 * time.Millisecond,
		ProbeInterval:   probe.ProbeInterval,
	}
}

// Result bundles everything a figure driver needs: the single-UE view of
// a topology run. The shared infrastructure (Sim, RAN, Prober, CapCore,
// CapSFU) is promoted from the TopologyResult, the endpoint side (Sender,
// Receiver, GCC, PCC, CapSender, CapReceiver, DLSender, DLReceiver,
// Report, RanDelayBySeq, EstimatedOffsets) from its only UEResult.
type Result struct {
	Cfg Config
	*TopologyResult
	*UEResult
}

// Run executes the scenario and correlates the traces: RunTopology over
// the 1-UE topology of cfg, byte-identical to the historical monolithic
// implementation (the golden-compat test pins this).
func Run(cfg Config) *Result {
	tr := RunTopology(SingleUE(cfg))
	return &Result{Cfg: cfg, TopologyResult: tr, UEResult: tr.UEs[0]}
}

// probeBaseline estimates the media path's core→receiver propagation from
// the probes: the median probe round trip (core→SFU→core) approximates
// core→SFU→receiver since the WAN legs are of similar length, and — like
// the paper's ICMP methodology — excludes the SFU's application-layer
// processing, which is answered in kernel space.
func probeBaseline(p *probe.Prober) time.Duration {
	rtts := make([]float64, 0, len(p.Results))
	for _, r := range p.Results {
		rtts = append(rtts, float64(r.RTT())/float64(time.Millisecond))
	}
	if len(rtts) == 0 {
		return 0
	}
	return time.Duration(stats.QuantileInPlace(rtts, 0.5) * float64(time.Millisecond))
}

// injector adds configured delay spikes and jitter episodes to media
// packets (probes bypass it: they enter at the core, after this stage).
type injector struct {
	s       *sim.Simulator
	spikes  []Spike
	jitters []JitterEpisode
	next    packet.Handler
	rng     interface{ Int63n(int64) int64 }
}

func newInjector(s *sim.Simulator, spikes []Spike, jitters []JitterEpisode, next packet.Handler) *injector {
	return &injector{s: s, spikes: spikes, jitters: jitters, next: next, rng: s.NewStream()}
}

// Handle applies any active episode's extra delay.
func (in *injector) Handle(p *packet.Packet) {
	now := in.s.Now()
	var extra time.Duration
	for _, sp := range in.spikes {
		if now >= sp.Start && now < sp.End {
			extra += sp.Extra
		}
	}
	for _, j := range in.jitters {
		if now >= j.Start && now < j.End && j.Amp > 0 {
			extra += time.Duration(in.rng.Int63n(int64(j.Amp)))
		}
	}
	if extra == 0 {
		in.next.Handle(p)
		return
	}
	in.s.After(extra, func() { in.next.Handle(p) })
}

// TBSchedule extracts the per-UL-slot used-byte budget from a RAN run's
// telemetry — the input to the Fig 7 emulated baseline ("equal emulated
// capacity ... calculated from the physical transport block sizes").
func TBSchedule(res *Result) []units.ByteCount {
	if res.RAN == nil {
		return nil
	}
	period := res.Cfg.RAN.ULPeriod()
	n := int(res.Cfg.Duration/period) + 1
	sched := make([]units.ByteCount, n)
	for _, r := range res.RAN.Telemetry.ForUE(1) {
		if r.HARQRound != 0 {
			continue
		}
		i := int(r.At / period)
		if i >= 0 && i < n {
			sched[i] += r.TBS
		}
	}
	return sched
}
