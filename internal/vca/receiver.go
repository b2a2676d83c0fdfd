package vca

import (
	"time"

	"athena/internal/media"
	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
)

// FeedbackInterval is the transport-wide feedback cadence (WebRTC sends
// roughly every 50–100 ms; we use 50 ms).
const FeedbackInterval = 50 * time.Millisecond

// Receiver is the receiving VCA endpoint: it reassembles frames from RTP
// packets, runs the jitter buffer and renderer, and generates
// transport-wide feedback. The paper captures the screen at 70 fps to
// learn which frame is showing; here Renderer.DisplayTimes records each
// displayed frame's sequence number and display time exactly, so nothing
// samples the screen.
type Receiver struct {
	sim    *sim.Simulator
	alloc  *packet.Alloc
	fbOut  packet.Handler // return path toward the sender
	frames map[uint64]*media.EncodedFrame

	jb       *media.JitterBuffer
	Renderer *media.Renderer
	// AudioPlay tracks the audio playout line: samples that miss their
	// 20 ms slot behind the fixed delay are concealed.
	AudioPlay *media.AudioPlayout

	builder   *rtp.FeedbackBuilder
	videoSSRC uint32

	asm map[uint64]*frameAsm // in-flight frame reassembly by FrameID
	// completed remembers recently finished frames so duplicated packets
	// (network duplication is real) cannot re-open and re-display them.
	completed map[uint64]time.Duration

	// Arrived bytes per second of receiver time, indexed by second: all
	// media (bitrate) and per SVC layer (Fig 8 top).
	recvBytes  []int64
	layerBytes map[rtp.SVCLayer][]int64

	// Figure inputs.
	VideoOWDMS  []float64 // per-packet uplink+path OWD, video (Fig 4)
	FrameJitter []float64 // per-frame inter-arrival jitter ms (Fig 7b)
	LostFrames  int

	lastFrameArrival time.Duration
	lastFramePTS     time.Duration
	haveFrameRef     bool

	fbTicker *sim.Ticker
	// releaseFn is release bound once; it ends every jitter-buffer wait.
	releaseFn func()
}

// frameAsm tracks reassembly of one frame.
type frameAsm struct {
	firstSeq     uint16
	haveFirst    bool
	markerSeq    uint16
	haveMarker   bool
	received     map[uint16]bool
	firstArrival time.Duration
	lastArrival  time.Duration
	pts          time.Duration
	createdAt    time.Duration
}

// NewReceiver creates a receiver. frames is the sender's FrameStore, which
// the receiver empties as frames complete or are given up on; fbOut
// carries RTCP feedback packets back toward the sender.
func NewReceiver(s *sim.Simulator, alloc *packet.Alloc, videoSSRC uint32, frames map[uint64]*media.EncodedFrame, fbOut packet.Handler) *Receiver {
	if fbOut == nil {
		fbOut = packet.Discard
	}
	r := &Receiver{
		sim:        s,
		alloc:      alloc,
		fbOut:      fbOut,
		frames:     frames,
		jb:         media.NewJitterBuffer(10*time.Millisecond, 400*time.Millisecond),
		Renderer:   media.NewRenderer(4),
		AudioPlay:  media.NewAudioPlayout(0),
		builder:    rtp.NewFeedbackBuilder(videoSSRC),
		videoSSRC:  videoSSRC,
		asm:        make(map[uint64]*frameAsm),
		completed:  make(map[uint64]time.Duration),
		layerBytes: make(map[rtp.SVCLayer][]int64),
	}
	r.releaseFn = r.release
	return r
}

// VideoSSRC reports the video flow this receiver subscribes to.
func (r *Receiver) VideoSSRC() uint32 { return r.videoSSRC }

// Start begins feedback generation.
func (r *Receiver) Start() {
	r.fbTicker = r.sim.Every(FeedbackInterval, FeedbackInterval, r.flushFeedback)
	// Reap stale incomplete frames (loss) every second.
	r.sim.Every(time.Second, time.Second, r.reapStale)
}

// Handle is the media ingress (behind capture point ④).
func (r *Receiver) Handle(p *packet.Packet) {
	rp, ok := p.Payload.(*rtp.Packet)
	if !ok {
		return
	}
	now := r.sim.Now()
	if rp.HasTWSeq {
		r.builder.OnArrival(rp.TWSeq, now, p.ECN == packet.ECNCE)
	}
	r.recvBytes = addBytes(r.recvBytes, now, p.Size)
	if rp.HasSVC {
		r.layerBytes[rp.SVC] = addBytes(r.layerBytes[rp.SVC], now, p.Size)
	}
	switch p.Kind {
	case packet.KindVideo:
		r.VideoOWDMS = append(r.VideoOWDMS, float64(now-p.SentAt)/float64(time.Millisecond))
		r.assemble(rp, now)
	case packet.KindAudio:
		pts := time.Duration(float64(rp.Timestamp) / 48000 * float64(time.Second))
		r.AudioPlay.OnArrival(pts, now)
	}
}

// assemble folds a video packet into its frame; a complete frame goes to
// the jitter buffer.
func (r *Receiver) assemble(rp *rtp.Packet, now time.Duration) {
	if _, done := r.completed[rp.FrameID]; done {
		return // duplicate of an already-rendered frame
	}
	a := r.asm[rp.FrameID]
	if a == nil {
		a = &frameAsm{
			received:     make(map[uint16]bool),
			firstArrival: now,
			createdAt:    now,
			pts:          time.Duration(float64(rp.Timestamp) / 90000 * float64(time.Second)),
		}
		r.asm[rp.FrameID] = a
	}
	a.received[rp.Seq] = true
	if now > a.lastArrival {
		a.lastArrival = now
	}
	if !a.haveFirst || seqBefore(rp.Seq, a.firstSeq) {
		a.firstSeq = rp.Seq
		a.haveFirst = true
	}
	if rp.Marker {
		a.markerSeq = rp.Seq
		a.haveMarker = true
	}
	if a.complete() {
		r.completeFrame(rp.FrameID, a, now)
	}
}

func (a *frameAsm) complete() bool {
	if !a.haveMarker || !a.haveFirst {
		return false
	}
	n := int(a.markerSeq-a.firstSeq) + 1
	return len(a.received) >= n
}

// seqBefore reports whether a precedes b in RFC 1982 serial order.
func seqBefore(a, b uint16) bool { return a != b && b-a < 0x8000 }

// completeFrame pushes a reassembled frame through the jitter buffer and
// schedules its playout.
func (r *Receiver) completeFrame(id uint64, a *frameAsm, now time.Duration) {
	delete(r.asm, id)
	r.completed[id] = now
	// The sender's copy is read once, here: a completed frame is never
	// displayed again, so the entry retires with it.
	ef := r.frames[id]
	delete(r.frames, id)
	if ef == nil {
		// Frame content unavailable (e.g. audio-less test harness).
		return
	}
	// Frame-level jitter (Fig 7b): |Δarrival − Δpts| between consecutive
	// completed frames.
	if r.haveFrameRef {
		gap := a.lastArrival - r.lastFrameArrival
		ptsGap := ef.PTS - r.lastFramePTS
		j := gap - ptsGap
		if j < 0 {
			j = -j
		}
		r.FrameJitter = append(r.FrameJitter, float64(j)/float64(time.Millisecond))
	}
	r.lastFrameArrival = a.lastArrival
	r.lastFramePTS = ef.PTS
	r.haveFrameRef = true

	r.sim.At(r.jb.Push(ef, now), r.releaseFn)
}

// release displays the frames whose jitter-buffer wait has ended.
func (r *Receiver) release() {
	for _, f := range r.jb.PopDue(r.sim.Now()) {
		r.Renderer.Display(f, r.sim.Now())
	}
}

// reapStale drops reassembly state, and the sender's stored frame, for
// frames that will never complete.
func (r *Receiver) reapStale() {
	now := r.sim.Now()
	for id, a := range r.asm {
		if now-a.createdAt > 2*time.Second {
			delete(r.asm, id)
			delete(r.frames, id)
			r.LostFrames++
		}
	}
	for id, at := range r.completed {
		if now-at > 5*time.Second {
			delete(r.completed, id)
		}
	}
}

// flushFeedback emits one transport-wide feedback packet.
func (r *Receiver) flushFeedback() {
	r.builder.ExpireGaps(r.sim.Now())
	fb := r.builder.Flush()
	if fb == nil {
		return
	}
	p := r.alloc.New(packet.KindRTCP, r.videoSSRC, units.ByteCount(fb.WireSize())+28, r.sim.Now())
	p.Payload = fb
	r.fbOut.Handle(p)
}

// addBytes adds n bytes to the count of now's second in bins, growing
// bins to reach it.
func addBytes(bins []int64, now time.Duration, n units.ByteCount) []int64 {
	i := int(now / time.Second)
	for len(bins) <= i {
		bins = append(bins, 0)
	}
	bins[i] += int64(n)
	return bins
}

// ratePoints turns per-second byte counts into kbps points, X at the
// second's centre, skipping seconds in which nothing arrived.
func ratePoints(bins []int64) []stats.Point {
	var pts []stats.Point
	for i, b := range bins {
		if b == 0 {
			continue
		}
		x := time.Duration(i)*time.Second + time.Second/2
		pts = append(pts, stats.Point{X: x.Seconds(), Y: float64(b) * 8 / 1000}) // bytes/s → kbps
	}
	return pts
}

// ReceiveRateSeries is the receive bitrate in 1 s buckets as kbps (Fig 7a
// input).
func (r *Receiver) ReceiveRateSeries() []stats.Point { return ratePoints(r.recvBytes) }

// ReceiveRates returns per-second receive-bitrate samples in kbps.
func (r *Receiver) ReceiveRates() []float64 {
	pts := r.ReceiveRateSeries()
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}

// JitterBufferTarget reports the current adaptive playout delay.
func (r *Receiver) JitterBufferTarget() time.Duration { return r.jb.TargetDelay() }

// LayerRateSeries is one SVC layer's bitrate in 1 s kbps points (Fig 8's
// per-layer bitrate plot). Returns nil for unseen layers.
func (r *Receiver) LayerRateSeries(layer rtp.SVCLayer) []stats.Point {
	return ratePoints(r.layerBytes[layer])
}
