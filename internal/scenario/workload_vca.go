package scenario

import (
	"time"

	"athena/internal/cc"
	"athena/internal/cc/gcc"
	"athena/internal/netem"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/rtp"
	"athena/internal/stats"
	"athena/internal/units"
	"athena/internal/vca"
)

// vcaWorkload is the historical Zoom-like endpoint, extracted verbatim
// from the pre-workload buildEndpoint: the construction order (sender,
// feedback path, receiver, optional TwoParty far end) is preserved
// exactly, so a VCA-only topology's RNG stream sequence — and therefore
// its digest — is unchanged (golden_compat_test pins this).
type vcaWorkload struct {
	ub *ueBuild
}

// newVCAWorkload also builds the congestion controller, at the same
// construction point (inside newBuildFor's UE loop) the monolithic path
// used. buildController is RNG-free, so the placement is order-exact.
func newVCAWorkload(spec UESpec, ub *ueBuild) *vcaWorkload {
	ub.ctrl = buildController(spec, ub.res)
	return &vcaWorkload{ub: ub}
}

func (w *vcaWorkload) Kind() WorkloadKind { return WorkloadVCA }

func (w *vcaWorkload) Hint() ran.AppHintClass { return ran.HintConversational }

// Build constructs the VCA pipeline behind the point-① capture: the
// sender, the feedback return path with the downlink demux, the
// receiver, and — for TwoParty specs — the far participant's endpoints.
func (w *vcaWorkload) Build(b *build, ub *ueBuild) {
	s, spec := b.s, ub.spec
	cap1 := ub.res.CapSender

	snd := vca.NewSender(s, &b.alloc, vca.SenderConfig{
		VideoSSRC:  ub.flows.Video,
		AudioSSRC:  ub.flows.Audio,
		Controller: ub.ctrl,
		AttachMeta: spec.AttachMeta,
		ECT:        spec.ECN,
		Seed:       spec.Seed + 10,
	}, cap1)
	ub.snd = snd
	ub.res.Sender = snd

	// Feedback return path: receiver → SFU → core → downlink.
	maskIfNeeded := func(p *packet.Packet) *packet.Packet {
		if spec.Controller != CtlMaskedGCC {
			return p
		}
		if fb, ok := p.Payload.(*rtp.Feedback); ok {
			p.Payload = cc.MaskFeedback(fb, ub.res.RanDelayBySeq.RANDelay)
		}
		return p
	}
	toSnd := packet.HandlerFunc(snd.HandleFeedback).Event
	toSender := packet.HandlerFunc(func(p *packet.Packet) {
		p = maskIfNeeded(p)
		if ub.ranUE != nil {
			ub.servingCell.SendDownlink(ub.ranUE, p)
		} else {
			s.AfterArg(privateLinkDelay, toSnd, p)
		}
	})
	if ub.ranUE != nil {
		// The UE host demuxes downlink arrivals: transport-wide feedback
		// for the local sender, far-party media for the DL receiver.
		ub.ranUE.Downlink = packet.HandlerFunc(func(p *packet.Packet) {
			if ub.handleNTPReply(s, p) {
				return
			}
			if _, isFB := p.Payload.(*rtp.Feedback); isFB {
				snd.HandleFeedback(p)
				return
			}
			if ub.res.DLReceiver != nil {
				ub.res.DLReceiver.Handle(p)
			}
		})
	}
	fbWan := netem.NewLink(s, "recv-core", 15*time.Millisecond, units.Gbps, toSender)
	recv := vca.NewReceiver(s, &b.alloc, ub.flows.Video, snd.FrameStore, fbWan)
	ub.res.Receiver = recv

	// Far participant (TwoParty): remote sender → WAN → downlink →
	// receiver on the UE host; feedback rides the UE uplink.
	if spec.TwoParty && ub.ranUE != nil {
		dlCtrl := gcc.New(spec.InitialRate, spec.MinRate, spec.MaxRate)
		toDownlink := packet.HandlerFunc(ub.sendDownlink).Event
		remoteOut := packet.HandlerFunc(func(p *packet.Packet) {
			s.AfterArg(15*time.Millisecond, toDownlink, p)
		})
		ub.res.DLSender = vca.NewSender(s, &b.alloc, vca.SenderConfig{
			VideoSSRC:  ub.flows.DLVideo,
			AudioSSRC:  ub.flows.DLAudio,
			Controller: dlCtrl,
			Seed:       spec.Seed + 20,
		}, remoteOut)
		ub.toRemoteSender = packet.HandlerFunc(ub.res.DLSender.HandleFeedback).Event
		// Feedback from the UE host enters the UE's uplink buffer and
		// competes with the local media.
		fbUp := packet.HandlerFunc(func(p *packet.Packet) { ub.ranUE.Handle(p) })
		ub.res.DLReceiver = vca.NewReceiver(s, &b.alloc, ub.flows.DLVideo, ub.res.DLSender.FrameStore, fbUp)
	}
}

// WiredArrival delivers a point-④ arrival to the media receiver.
func (w *vcaWorkload) WiredArrival(p *packet.Packet) { w.ub.res.Receiver.Handle(p) }

func (w *vcaWorkload) Start() {
	ub := w.ub
	ub.snd.Start()
	ub.res.Receiver.Start()
	if ub.res.DLSender != nil {
		ub.res.DLSender.Start()
		ub.res.DLReceiver.Start()
	}
}

func (w *vcaWorkload) Stop() {
	w.ub.snd.Stop()
	if w.ub.res.DLSender != nil {
		w.ub.res.DLSender.Stop()
	}
}

// Score summarizes conferencing QoE: render stalls, frame jitter, video
// OWD, audio concealment and delivered bitrate.
func (w *vcaWorkload) Score(d time.Duration) WorkloadScore {
	r := w.ub.res.Receiver
	return WorkloadScore{Kind: WorkloadVCA, Scalars: map[string]float64{
		"stalls":              float64(r.Renderer.Stalls),
		"frame_jitter_p95_ms": stats.Quantile(r.FrameJitter, 0.95),
		"video_owd_p95_ms":    stats.Quantile(r.VideoOWDMS, 0.95),
		"audio_concealment":   r.AudioPlay.ConcealmentRate(),
		"recv_rate_p50_kbps":  stats.Quantile(r.ReceiveRates(), 0.5),
	}}
}
