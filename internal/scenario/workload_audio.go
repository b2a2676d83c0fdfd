package scenario

import (
	"time"

	"athena/internal/media"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
)

// audioOnlyWorkload is the voice-call family: Opus-cadence 20 ms samples
// uplinked as small RTP packets (real transport-wide sequence numbers,
// so the PHY side-channel and the correlator see them like any media
// flow), scored on the receiver playout line — samples that miss the
// fixed-delay slot are concealed, the application-visible damage the
// paper measures for audio.
type audioOnlyWorkload struct {
	ub    *ueBuild
	s     *sim.Simulator
	alloc *packet.Alloc
	enc   *media.AudioEncoder
	pack  *rtp.Packetizer
	play  *media.AudioPlayout
	out   packet.Handler

	twSeq    uint32
	delaysMS []float64
	until    time.Duration
	stopped  bool
}

func (w *audioOnlyWorkload) Kind() WorkloadKind { return WorkloadAudioOnly }

func (w *audioOnlyWorkload) Hint() ran.AppHintClass { return ran.HintConversational }

func (w *audioOnlyWorkload) Build(b *build, ub *ueBuild) {
	w.s, w.alloc = b.s, &b.alloc
	w.until = b.top.Duration
	w.enc = media.NewAudioEncoder(0)
	w.pack = rtp.NewPacketizer(ub.flows.Audio, rtp.PayloadTypeAudio, 48000, 1160)
	w.play = media.NewAudioPlayout(0)
	w.out = ub.res.CapSender
	// No feedback stream and no downlink media: only NTP replies return.
	ub.ranUE.Downlink = packet.HandlerFunc(func(p *packet.Packet) {
		ub.handleNTPReply(b.s, p)
	})
}

func (w *audioOnlyWorkload) Start() {
	w.s.Every(0, media.AudioFrameInterval, func() {
		if w.stopped || w.s.Now() > w.until {
			return
		}
		w.emitSample()
	})
}

func (w *audioOnlyWorkload) Stop() { w.stopped = true }

// emitSample encodes and packetizes one 20 ms Opus-like sample.
func (w *audioOnlyWorkload) emitSample() {
	now := w.s.Now()
	sample := w.enc.Next(now)
	pkts := w.pack.Packetize(rtp.Unit{
		Bytes:      int(sample.Bytes),
		PTSSeconds: now.Seconds(),
		SVC:        rtp.LayerAudio,
	})
	for _, rp := range pkts {
		rp.FrameID = sample.Seq
		w.twSeq++
		rp.TWSeq = uint16(w.twSeq)
		rp.HasTWSeq = true
		p := w.alloc.New(packet.KindAudio, rp.SSRC, units.ByteCount(rp.WireSize()+28), now)
		p.Seq = w.twSeq
		p.Payload = rp
		w.out.Handle(p)
	}
}

// WiredArrival scores a sample against the playout line.
func (w *audioOnlyWorkload) WiredArrival(p *packet.Packet) {
	rp, ok := p.Payload.(*rtp.Packet)
	if !ok {
		return
	}
	now := w.s.Now()
	pts := time.Duration(float64(rp.Timestamp) / 48000 * float64(time.Second))
	w.play.OnArrival(pts, now)
	w.delaysMS = append(w.delaysMS, float64(now-p.SentAt)/float64(time.Millisecond))
}

// Score summarizes the playout line and the one-way delay distribution.
func (w *audioOnlyWorkload) Score(d time.Duration) WorkloadScore {
	return WorkloadScore{Kind: WorkloadAudioOnly, Scalars: map[string]float64{
		"concealment":  w.play.ConcealmentRate(),
		"delay_p50_ms": stats.Quantile(w.delaysMS, 0.5),
		"delay_p95_ms": stats.Quantile(w.delaysMS, 0.95),
		"played":       float64(w.play.Played),
		"concealed":    float64(w.play.Concealed),
	}}
}
