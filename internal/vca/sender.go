package vca

import (
	"time"

	"athena/internal/cc"
	"athena/internal/media"
	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
)

// SenderConfig parameterizes a VCA sender.
type SenderConfig struct {
	VideoSSRC, AudioSSRC uint32
	FrameW, FrameH       int
	AudioRate            units.BitRate
	Controller           cc.Controller
	// AttachMeta adds the §5.2 media-metadata RTP extension for the
	// app-aware RAN scheduler.
	AttachMeta bool
	// ECT marks outgoing media as L4S-capable (ECT(1)) for benchmark M4.
	ECT bool
	// Adaptation policy; nil uses NewAdaptation defaults.
	Adaptation *Adaptation
	Seed       int64
}

// Sender is the Zoom-like transmitting endpoint.
type Sender struct {
	cfg   SenderConfig
	sim   *sim.Simulator
	alloc *packet.Alloc
	out   packet.Handler

	src   *media.Source
	enc   *media.Encoder
	aenc  *media.AudioEncoder
	vpack *rtp.Packetizer
	apack *rtp.Packetizer
	adapt *Adaptation

	twSeq     uint16
	hist      cc.History // send history, read by the controller and adaptation
	lastFrame units.ByteCount

	// FrameStore makes encoded frames available to the receiver for
	// reconstruction and SSIM scoring; it stands in for the payload bits
	// the simulator does not materialize.
	FrameStore map[uint64]*media.EncodedFrame

	// Diagnostics / figure inputs.
	OWDSeries  *stats.Series // sender-estimated one-way delay (ms)
	ModeSeries *stats.Series // encoder mode fps over time
	SkipEvents int

	stopped bool
	// frameFn is frame bound once; it runs the video capture chain.
	frameFn func()
}

// NewSender wires a sender that emits packets into out (capture point ①).
func NewSender(s *sim.Simulator, alloc *packet.Alloc, cfg SenderConfig, out packet.Handler) *Sender {
	if cfg.FrameW == 0 {
		cfg.FrameW, cfg.FrameH = 64, 48
	}
	if cfg.AudioRate == 0 {
		cfg.AudioRate = 40 * units.Kbps
	}
	if cfg.Adaptation == nil {
		cfg.Adaptation = NewAdaptation()
	}
	if out == nil {
		out = packet.Discard
	}
	initial := cfg.Controller.TargetRate()
	snd := &Sender{
		cfg:        cfg,
		sim:        s,
		alloc:      alloc,
		out:        out,
		src:        media.NewSource(cfg.FrameW, cfg.FrameH, cfg.Seed),
		enc:        media.NewEncoder(media.Mode28FPS, initial, cfg.Seed+1),
		aenc:       media.NewAudioEncoder(cfg.AudioRate),
		vpack:      rtp.NewPacketizer(cfg.VideoSSRC, rtp.PayloadTypeVideo, 90000, 1160),
		apack:      rtp.NewPacketizer(cfg.AudioSSRC, rtp.PayloadTypeAudio, 48000, 1160),
		adapt:      cfg.Adaptation,
		FrameStore: make(map[uint64]*media.EncodedFrame),
		OWDSeries:  stats.NewSeries("owd_ms"),
		ModeSeries: stats.NewSeries("mode_fps"),
	}
	snd.vpack.AttachMeta = cfg.AttachMeta
	snd.frameFn = snd.frame
	return snd
}

// SSRCs reports the sender's video and audio flow identifiers —
// multi-UE topologies assign these per participant, so downstream tools
// read them back here instead of assuming the legacy 1/2 pair.
func (snd *Sender) SSRCs() (video, audio uint32) {
	return snd.cfg.VideoSSRC, snd.cfg.AudioSSRC
}

// Start begins capture at t=0: video at the current mode's cadence, audio
// every 20 ms.
func (snd *Sender) Start() {
	snd.scheduleNextFrame(0)
	snd.sim.Every(0, media.AudioFrameInterval, snd.captureAudio)
}

// Stop halts media generation (the scheduled chain ends).
func (snd *Sender) Stop() { snd.stopped = true }

func (snd *Sender) scheduleNextFrame(at time.Duration) {
	snd.sim.At(at, snd.frameFn)
}

// frame captures one video frame and schedules the next at the current
// mode's cadence.
func (snd *Sender) frame() {
	if snd.stopped {
		return
	}
	snd.captureFrame()
	snd.scheduleNextFrame(snd.sim.Now() + snd.enc.Mode().Interval())
}

// captureFrame pulls a camera frame, encodes, packetizes and sends.
func (snd *Sender) captureFrame() {
	now := snd.sim.Now()
	// Video budget: CC target minus the audio share.
	target := snd.cfg.Controller.TargetRate() - snd.cfg.AudioRate
	snd.enc.SetTargetRate(target)
	snd.ModeSeries.Add(now, float64(snd.enc.Mode().FPS()))

	ef := snd.enc.Encode(snd.src.Next(), now)
	if ef == nil {
		return // skipped (transient jitter response)
	}
	snd.FrameStore[uint64(snd.cfg.VideoSSRC)<<32|ef.Seq] = ef
	snd.lastFrame = ef.Bytes
	if snd.cfg.AttachMeta {
		snd.vpack.Meta = rtp.MediaMeta{
			Streams:        2,
			FrameRateFPS:   uint8(snd.enc.Mode().FPS()),
			AudioRateHz:    uint16(time.Second/media.AudioFrameInterval) * 100,
			FrameSizeBytes: uint32(snd.lastFrame),
		}
	}
	pkts := snd.vpack.Packetize(rtp.Unit{
		Bytes:      int(ef.Bytes),
		PTSSeconds: now.Seconds(),
		SVC:        ef.Layer,
	})
	for _, rp := range pkts {
		rp.FrameID = uint64(snd.cfg.VideoSSRC)<<32 | ef.Seq
		snd.send(rp, packet.KindVideo)
	}
}

// captureAudio emits one Opus-like sample.
func (snd *Sender) captureAudio() {
	if snd.stopped {
		return
	}
	now := snd.sim.Now()
	s := snd.aenc.Next(now)
	pkts := snd.apack.Packetize(rtp.Unit{
		Bytes:      int(s.Bytes),
		PTSSeconds: now.Seconds(),
		SVC:        rtp.LayerAudio,
	})
	for _, rp := range pkts {
		rp.FrameID = uint64(snd.cfg.AudioSSRC)<<32 | s.Seq
		snd.send(rp, packet.KindAudio)
	}
}

// send wraps an RTP packet in an IP datagram, assigns the transport-wide
// sequence, informs the controller, and emits it.
func (snd *Sender) send(rp *rtp.Packet, kind packet.Kind) {
	now := snd.sim.Now()
	snd.twSeq++
	rp.TWSeq = snd.twSeq
	rp.HasTWSeq = true
	size := units.ByteCount(rp.WireSize() + 28) // IP+UDP headers
	p := snd.alloc.New(kind, rp.SSRC, size, now)
	p.Seq = uint32(snd.twSeq)
	p.Payload = rp
	if snd.cfg.ECT {
		p.ECN = packet.ECNECT1
	}
	snd.cfg.Controller.OnPacketSent(snd.twSeq, size, now)
	snd.hist.Add(cc.SentPacket{Seq: snd.twSeq, Size: size, SentAt: now})
	snd.out.Handle(p)
}

// HandleFeedback is the sender's downlink ingress: RTCP transport-wide
// feedback packets drive the congestion controller and the adaptation
// policy.
func (snd *Sender) HandleFeedback(p *packet.Packet) {
	fb, ok := p.Payload.(*rtp.Feedback)
	if !ok {
		return
	}
	now := snd.sim.Now()
	snd.cfg.Controller.OnFeedback(fb, &snd.hist, now)

	// Estimate OWD per packet for the adaptation policy (hosts are
	// NTP-synchronized in the testbed, so arrival-minus-send is usable).
	for _, rep := range fb.Reports {
		if !rep.Received {
			continue
		}
		if sp, ok := snd.hist.Get(rep.Seq); ok {
			owd := rep.Arrival - sp.SentAt
			snd.OWDSeries.Add(now, float64(owd)/float64(time.Millisecond))
			dec := snd.adapt.Observe(owd, now)
			if dec.ModeChange {
				snd.enc.SetMode(dec.Mode)
			}
			if dec.SkipFrames > 0 {
				snd.enc.SkipFrames(dec.SkipFrames)
				snd.SkipEvents++
			}
		}
	}
}

// Adapt returns the adaptation policy (diagnostics).
func (snd *Sender) Adapt() *Adaptation { return snd.adapt }

// Encoder exposes the encoder (diagnostics and tests).
func (snd *Sender) Encoder() *media.Encoder { return snd.enc }
