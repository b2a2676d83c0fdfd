package scenario

// The topology refactor's load-bearing promise is that a single-UE
// Topology run is byte-identical to the pre-refactor monolithic Run: the
// same RNG stream creation order, the same event insertion order, the
// same per-packet corrected timings. legacyRun below is a verbatim copy
// of the monolith (only the injector construction and the Result literal
// are adapted to the refactored signatures), kept as the golden
// reference; the tests compare full result digests for the figure-shaped configs that exercise every
// stage (Fig 3: 5G + cross traffic + two-party; Fig 7: 5G and its
// emulated twin).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"athena/internal/cc"
	"athena/internal/cc/gcc"
	"athena/internal/cc/l4s"
	"athena/internal/cc/pcc"
	"athena/internal/cc/phyaware"
	"athena/internal/clock"
	"athena/internal/core"
	"athena/internal/netem"
	"athena/internal/packet"
	"athena/internal/probe"
	"athena/internal/ran"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/units"
	"athena/internal/vca"
	"athena/internal/wifi"
)

// legacyRun is the pre-refactor monolithic Run, preserved verbatim as
// the golden reference implementation.
func legacyRun(cfg Config) *Result {
	s := sim.New(cfg.Seed)
	var alloc packet.Alloc
	res := &Result{Cfg: cfg, TopologyResult: &TopologyResult{Sim: s}, UEResult: &UEResult{}}

	// Host clocks (NTP-synchronized: small residual offsets).
	senderClk := &clock.HostClock{Name: "sender", Offset: cfg.SenderClockOffset}
	coreClk := clock.Perfect("core")
	sfuClk := clock.Perfect("sfu")
	recvClk := &clock.HostClock{Name: "receiver", Offset: cfg.ReceiverClockOffset}

	// Congestion controller.
	res.RanDelayBySeq = phyaware.NewTable()
	var ctrl cc.Controller
	switch cfg.Controller {
	case CtlL4S:
		ctrl = l4s.New(cfg.InitialRate, cfg.MinRate, cfg.MaxRate)
	case CtlPCC:
		p := pcc.New(cfg.InitialRate, cfg.MinRate, cfg.MaxRate)
		res.PCC = p
		ctrl = p
	case CtlPHYAware:
		g := phyaware.New(cfg.InitialRate, cfg.MinRate, cfg.MaxRate, res.RanDelayBySeq)
		g.CaptureTrace = cfg.CaptureGCC
		res.GCC = g
		ctrl = g
	default: // CtlGCC, CtlMaskedGCC
		g := gcc.New(cfg.InitialRate, cfg.MinRate, cfg.MaxRate)
		g.CaptureTrace = cfg.CaptureGCC
		res.GCC = g
		ctrl = g
	}

	// ---- Downstream path: core → WAN → SFU → WAN → receiver. ----
	var recv *vca.Receiver
	cap4 := packet.NewCapture(packet.PointReceiver, recvClk, s.Now,
		packet.HandlerFunc(func(p *packet.Packet) { recv.Handle(p) }))
	res.CapReceiver = cap4
	wanDown := netem.NewLink(s, "sfu-recv", 7*time.Millisecond, units.Gbps, cap4)
	wanDown.Jitter = 500 * time.Microsecond

	var prober *probe.Prober
	sfu := netem.NewSFU(s, wanDown)
	// The SFU is also the probe target: echoes return to the core.
	wanBackToCore := netem.NewLink(s, "sfu-core", 8*time.Millisecond, units.Gbps, packet.HandlerFunc(func(p *packet.Packet) {
		prober.Done(p)
	}))
	wanBackToCore.Jitter = 500 * time.Microsecond
	sfuIngress := packet.HandlerFunc(func(p *packet.Packet) {
		if p.Kind == packet.KindICMP {
			prober.Echo(p)
			wanBackToCore.Handle(p)
			return
		}
		cap3 := res.CapSFU
		cap3.Handle(p)
	})
	res.CapSFU = packet.NewCapture(packet.PointSFU, sfuClk, s.Now, sfu)
	wanUp := netem.NewLink(s, "core-sfu", 8*time.Millisecond, units.Gbps, sfuIngress)
	wanUp.Jitter = 500 * time.Microsecond
	if cfg.ECN && cfg.RAN.ECNThreshold == 0 {
		// Shallow L4S marking at the true bottleneck: the UE uplink queue.
		cfg.RAN.ECNThreshold = 6000
	}

	// Delay injection stage (Fig 8 episodes) between core and WAN.
	inject := newInjector(s, cfg.Spikes, cfg.Jitters, wanUp)

	// ---- Core capture (point ②), which also fills the PHY side-channel
	// table from the RAN's attribution. ----
	// NTP state (EstimateOffsets): the sender host's exchanges ride the
	// real uplink/downlink; the receiver's ride the wired path.
	const ntpFlow = 999
	var ue *ran.UE
	ntpT1 := make(map[uint64]time.Duration)
	ntpT2 := make(map[uint64]time.Duration)
	var senderNTP, recvNTP clock.SyncEstimator

	const dlVideoSSRC, dlAudioSSRC = 11, 12
	cap2Next := packet.HandlerFunc(func(p *packet.Packet) {
		// NTP requests from the sender host turn around at the core.
		if p.Kind == packet.KindCross && p.Flow == ntpFlow {
			ntpT2[p.ID] = coreClk.Read(s.Now())
			if ue != nil {
				res.RAN.SendDownlink(ue, p)
			}
			return
		}
		// The far participant's RTCP feedback exits the uplink here and
		// heads back across the WAN to the remote sender.
		if p.Kind == packet.KindRTCP && p.Flow == dlVideoSSRC {
			if res.DLSender != nil {
				snd := res.DLSender
				s.After(15*time.Millisecond, func() { snd.HandleFeedback(p) })
			}
			return
		}
		if rp, ok := p.Payload.(*rtp.Packet); ok && rp.HasTWSeq {
			// Only the RAN-mechanical share is reported: slot alignment
			// and BSR scheduling are bounded by one BSR cycle; queue wait
			// beyond that indicates genuine contention and must stay
			// visible to the sender's congestion controller.
			mech := p.GroundTruth.UEQueueWait
			if lim := cfg.RAN.SchedDelay + cfg.RAN.ULPeriod(); mech > lim {
				mech = lim
			}
			res.RanDelayBySeq.Set(rp.TWSeq, mech+p.GroundTruth.HARQDelay)
		}
		inject.Handle(p)
	})
	cap2 := packet.NewCapture(packet.PointCore, coreClk, s.Now, cap2Next)
	res.CapCore = cap2

	// ---- Uplink path: sender capture ① → access network → ②. ----
	var senderOut packet.Handler
	switch {
	case cfg.Emulated:
		// tc shapes at packet granularity; spread each UL-period budget
		// over the finer slot grid so the emulated link is smooth.
		sched := make([]units.ByteCount, 0, len(cfg.EmulatedSchedule)*cfg.RAN.SlotsPerPeriod)
		for _, b := range cfg.EmulatedSchedule {
			per := b / units.ByteCount(cfg.RAN.SlotsPerPeriod)
			for i := 0; i < cfg.RAN.SlotsPerPeriod; i++ {
				sched = append(sched, per)
			}
		}
		senderOut = netem.NewFixedLatencyLink(s, cfg.EmulatedLatency, sched, cfg.RAN.SlotDuration, cap2)
	case cfg.Access == AccessWiFi:
		wcfg := cfg.WiFi
		if wcfg.PHYRate == 0 {
			wcfg = wifi.Defaults()
		}
		senderOut = wifi.New(s, wcfg, cap2)
	case cfg.Access == AccessLEO:
		senderOut = netem.NewLEOLink(s, cap2)
	case cfg.Access == AccessWired:
		senderOut = netem.NewFixedLatencyLink(s, cfg.EmulatedLatency,
			[]units.ByteCount{cfg.RAN.SlotCapacity()}, cfg.RAN.ULPeriod(), cap2)
	default: // Access5G
		res.RAN = ran.New(s, cfg.RAN, cap2)
		ue = res.RAN.AttachUE(1, cfg.Sched)
		senderOut = ue
		if cfg.CrossUEs > 0 && len(cfg.CrossPhases) > 0 {
			ran.NewCrossSource(s, res.RAN, &alloc, cfg.CrossUEs, 100, cfg.CrossPhases)
		}
	}
	cap1 := packet.NewCapture(packet.PointSender, senderClk, s.Now, senderOut)
	res.CapSender = cap1

	// ---- Sender. ----
	snd := vca.NewSender(s, &alloc, vca.SenderConfig{
		VideoSSRC:  1,
		AudioSSRC:  2,
		Controller: ctrl,
		AttachMeta: cfg.AttachMeta,
		ECT:        cfg.ECN,
		Seed:       cfg.Seed + 10,
	}, cap1)
	res.Sender = snd

	// ---- Feedback return path: receiver → SFU → core → downlink. ----
	maskIfNeeded := func(p *packet.Packet) *packet.Packet {
		if cfg.Controller != CtlMaskedGCC {
			return p
		}
		if fb, ok := p.Payload.(*rtp.Feedback); ok {
			p.Payload = cc.MaskFeedback(fb, res.RanDelayBySeq.RANDelay)
		}
		return p
	}
	toSender := packet.HandlerFunc(func(p *packet.Packet) {
		p = maskIfNeeded(p)
		if ue != nil {
			res.RAN.SendDownlink(ue, p)
		} else {
			s.After(cfg.EmulatedLatency, func() { snd.HandleFeedback(p) })
		}
	})
	if ue != nil {
		// The UE host demuxes downlink arrivals: transport-wide feedback
		// for the local sender, far-party media for the DL receiver.
		ue.Downlink = packet.HandlerFunc(func(p *packet.Packet) {
			if p.Kind == packet.KindCross && p.Flow == ntpFlow {
				// NTP reply back at the sender host.
				if t1, ok := ntpT1[p.ID]; ok {
					stamp := ntpT2[p.ID]
					senderNTP.Add(clock.ProbeSample{
						T1: t1, T2: stamp, T3: stamp,
						T4: senderClk.Read(s.Now()),
					})
					delete(ntpT1, p.ID)
					delete(ntpT2, p.ID)
				}
				return
			}
			if _, isFB := p.Payload.(*rtp.Feedback); isFB {
				snd.HandleFeedback(p)
				return
			}
			if res.DLReceiver != nil {
				res.DLReceiver.Handle(p)
			}
		})
	}
	fbWan := netem.NewLink(s, "recv-core", 15*time.Millisecond, units.Gbps, toSender)
	recv = vca.NewReceiver(s, &alloc, 1, snd.FrameStore, fbWan)
	res.Receiver = recv

	// ---- Far participant (TwoParty): remote sender → WAN → downlink →
	// receiver on the UE host; feedback rides the UE uplink. ----
	if cfg.TwoParty && ue != nil {
		dlCtrl := gcc.New(cfg.InitialRate, cfg.MinRate, cfg.MaxRate)
		remoteOut := packet.HandlerFunc(func(p *packet.Packet) {
			s.After(15*time.Millisecond, func() { res.RAN.SendDownlink(ue, p) })
		})
		res.DLSender = vca.NewSender(s, &alloc, vca.SenderConfig{
			VideoSSRC:  dlVideoSSRC,
			AudioSSRC:  dlAudioSSRC,
			Controller: dlCtrl,
			Seed:       cfg.Seed + 20,
		}, remoteOut)
		// Feedback from the UE host enters the UE's uplink buffer and
		// competes with the local media.
		fbUp := packet.HandlerFunc(func(p *packet.Packet) { ue.Handle(p) })
		res.DLReceiver = vca.NewReceiver(s, &alloc, dlVideoSSRC, res.DLSender.FrameStore, fbUp)
	}

	// ---- Prober (core → SFU → core, every 20 ms). ----
	prober = probe.New(s, &alloc, 50, wanUp)
	res.Prober = prober

	// ---- NTP clients (EstimateOffsets). ----
	if cfg.EstimateOffsets {
		if ue != nil {
			cap1ref := res.CapSender
			s.Every(50*time.Millisecond, 250*time.Millisecond, func() {
				p := alloc.New(packet.KindCross, ntpFlow, 90, s.Now())
				ntpT1[p.ID] = senderClk.Read(s.Now())
				cap1ref.Handle(p)
			})
		}
		// The receiver host syncs over the wired path (15 ms symmetric
		// with sub-ms jitter).
		ntpRNG := s.NewStream()
		s.Every(70*time.Millisecond, 250*time.Millisecond, func() {
			t1 := recvClk.Read(s.Now())
			owdUp := 15*time.Millisecond + time.Duration(ntpRNG.Int63n(int64(time.Millisecond)))
			owdDn := 15*time.Millisecond + time.Duration(ntpRNG.Int63n(int64(time.Millisecond)))
			arrive := s.Now() + owdUp
			s.At(arrive+owdDn, func() {
				stamp := coreClk.Read(arrive)
				recvNTP.Add(clock.ProbeSample{T1: t1, T2: stamp, T3: stamp, T4: recvClk.Read(s.Now())})
			})
		})
	}

	// ---- Go. ----
	snd.Start()
	recv.Start()
	if res.DLSender != nil {
		res.DLSender.Start()
		res.DLReceiver.Start()
	}
	prober.Start(cfg.ProbeInterval)
	s.RunUntil(cfg.Duration)
	snd.Stop()
	if res.DLSender != nil {
		res.DLSender.Stop()
	}

	// ---- Correlate. ----
	offsets := map[packet.Point]time.Duration{
		packet.PointSender:   cfg.SenderClockOffset,
		packet.PointReceiver: cfg.ReceiverClockOffset,
	}
	if cfg.EstimateOffsets {
		// ProbeSample.Offset() is remote-minus-reference; the reference
		// clock here is the host being synchronized, and the core is the
		// (true-time) remote, so the host's own offset is the negation.
		offsets = map[packet.Point]time.Duration{}
		if est, ok := senderNTP.Estimate(); ok {
			offsets[packet.PointSender] = -est
		}
		if est, ok := recvNTP.Estimate(); ok {
			offsets[packet.PointReceiver] = -est
		}
		res.EstimatedOffsets = offsets
	}
	in := core.Input{
		Sender:           res.CapSender.Records,
		Core:             res.CapCore.Records,
		SFU:              res.CapSFU.Records,
		Receiver:         res.CapReceiver.Records,
		Offsets:          offsets,
		SlotDuration:     cfg.RAN.SlotDuration,
		CoreDelay:        cfg.RAN.CoreDelay,
		ProbeOWDBaseline: probeBaseline(prober),
	}
	if res.RAN != nil {
		in.TBs = res.RAN.Telemetry.ForUE(1)
	}
	res.Report = core.Correlate(in)
	return res
}

// compatDigest renders the determinism-relevant content of a Result as
// bytes — the same rendering the runner's determinism test uses —
// covering per-packet corrected timings, delay summaries, receiver
// output and probe OWDs.
func compatDigest(res *Result) string {
	if res == nil {
		return "<nil>"
	}
	var b strings.Builder
	rep := res.Report
	fmt.Fprintf(&b, "packets=%d frames=%d\n", len(rep.Packets), len(rep.Frames))
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

func assertGolden(t *testing.T, name string, cfg Config) {
	t.Helper()
	want := compatDigest(legacyRun(cfg))
	got := compatDigest(Run(cfg))
	if got != want {
		t.Fatalf("%s: topology Run diverged from pre-refactor monolith\nlegacy digest %d bytes, topology digest %d bytes\nlegacy head: %.300s\ntopology head: %.300s",
			name, len(want), len(got), want, got)
	}
}

// TestTopologyMatchesLegacyFig3 proves the 1-UE Topology path is
// byte-identical to the monolith for the Fig 3 workload.
func TestTopologyMatchesLegacyFig3(t *testing.T) {
	assertGolden(t, "fig3", fig3ShapedConfig())
}

// TestTopologyMatchesLegacyFig7 covers the Fig 7 pair: the physical 5G
// baseline and its fixed-latency emulated twin driven by a TB schedule.
func TestTopologyMatchesLegacyFig7(t *testing.T) {
	base := Defaults()
	base.Duration = 6 * time.Second
	assertGolden(t, "fig7-5g", base)

	em := base
	em.Emulated = true
	em.EmulatedSchedule = []units.ByteCount{base.RAN.SlotCapacity()}
	assertGolden(t, "fig7-emulated", em)
}

// TestTopologyMatchesLegacyVariants sweeps the remaining stage branches
// the figure configs miss: alternate access networks, masked-GCC + ECN,
// delay/jitter injection, and NTP-estimated offsets.
func TestTopologyMatchesLegacyVariants(t *testing.T) {
	wifiCfg := Defaults()
	wifiCfg.Duration = 3 * time.Second
	wifiCfg.Access = AccessWiFi
	assertGolden(t, "wifi", wifiCfg)

	wired := Defaults()
	wired.Duration = 3 * time.Second
	wired.Access = AccessWired
	assertGolden(t, "wired", wired)

	masked := Defaults()
	masked.Duration = 3 * time.Second
	masked.Controller = CtlMaskedGCC
	masked.ECN = true
	masked.Spikes = []Spike{{Start: time.Second, End: 2 * time.Second, Extra: 40 * time.Millisecond}}
	masked.Jitters = []JitterEpisode{{Start: 2 * time.Second, End: 3 * time.Second, Amp: 10 * time.Millisecond}}
	assertGolden(t, "masked-ecn-inject", masked)

	ntp := Defaults()
	ntp.Duration = 3 * time.Second
	ntp.EstimateOffsets = true
	ntp.SenderClockOffset = 2 * time.Millisecond
	ntp.ReceiverClockOffset = -1 * time.Millisecond
	assertGolden(t, "ntp-estimated", ntp)
}
