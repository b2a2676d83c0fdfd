// Cloud gaming as a full bidirectional endpoint, promoting ClassGaming
// beyond the uplink-only input generator: a GameServer on the wired side
// streams frame-paced downlink video with a bitrate ladder (Wan &
// Jamieson's 5G cloud-gaming telemetry setup), while a GameClient on the
// UE emits 125 Hz input events uplink and scores frame delivery. The
// scenario workload layer wires the two across the real RAN/core path.
package apps

import (
	"math/rand"
	"time"

	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/stats"
	"athena/internal/units"
)

// InputState is the payload of one uplink input event: the client's
// controller sample plus its rolling late-frame fraction, which is the
// server's ladder-adaptation signal (a QoE report riding the input
// stream, as real cloud-gaming clients do).
type InputState struct {
	Seq      uint32
	LateFrac float64
}

// GameConfig parameterizes a cloud-gaming session.
type GameConfig struct {
	// InputFlow / FrameFlow are the uplink input and downlink video flow
	// identifiers.
	InputFlow, FrameFlow uint32

	// FPS is the server's strict pacing cadence (default 60).
	FPS int

	// LadderMbps is the bitrate ladder, ascending (default 2/4/8 Mbps).
	// The server starts on the top rung and steps under late frames.
	LadderMbps []float64

	// FrameBudget is the delivery deadline past capture before a frame
	// counts late (default 50 ms).
	FrameBudget time.Duration
}

func (c *GameConfig) defaults() {
	if c.FPS <= 0 {
		c.FPS = 60
	}
	if len(c.LadderMbps) == 0 {
		c.LadderMbps = []float64{2, 4, 8}
	}
	if c.FrameBudget <= 0 {
		c.FrameBudget = 50 * time.Millisecond
	}
}

// GameServer is the cloud side: it receives input events (wire its
// OnInput to the far-end tap), renders/encodes a frame every 1/FPS on a
// strict clock, and packetizes it onto the downlink flow.
type GameServer struct {
	Cfg GameConfig

	sim   *sim.Simulator
	alloc *packet.Alloc
	out   packet.Handler // downlink path toward the UE
	rng   *rand.Rand
	pack  *rtp.Packetizer

	rung      int // index into Cfg.LadderMbps
	lastShift time.Duration

	// InputDelaysMS collects per-event input one-way delays (the metric
	// cloud gaming lives and dies by).
	InputDelaysMS []float64
	// RungTrace records the ladder rung after every adaptation decision.
	RungTrace []int
	// FramesSent counts paced frames.
	FramesSent int

	stopped bool
}

// ladder hysteresis: at most one rung shift per window.
const ladderShiftWindow = 2 * time.Second

// NewGameServer creates the cloud endpoint emitting frames into out.
// rng must be explicitly seeded (same hygiene contract as New).
func NewGameServer(s *sim.Simulator, alloc *packet.Alloc, cfg GameConfig, rng *rand.Rand, out packet.Handler) *GameServer {
	cfg.defaults()
	if out == nil {
		out = packet.Discard
	}
	if rng == nil {
		panic("apps: NewGameServer requires an explicitly seeded *rand.Rand")
	}
	return &GameServer{
		Cfg:   cfg,
		sim:   s,
		alloc: alloc,
		out:   out,
		rng:   rng,
		pack:  rtp.NewPacketizer(cfg.FrameFlow, rtp.PayloadTypeVideo, 90000, 1160),
		rung:  len(cfg.LadderMbps) - 1,
	}
}

// Start begins strict-paced frame streaming until `until`.
func (gs *GameServer) Start(until time.Duration) {
	interval := time.Duration(float64(time.Second) / float64(gs.Cfg.FPS))
	gs.sim.Every(0, interval, func() {
		if gs.stopped || gs.sim.Now() > until {
			return
		}
		gs.emitFrame()
	})
}

// Stop halts frame generation.
func (gs *GameServer) Stop() { gs.stopped = true }

// RateMbps reports the current ladder rung's bitrate.
func (gs *GameServer) RateMbps() float64 { return gs.Cfg.LadderMbps[gs.rung] }

// emitFrame sizes one frame at the current rung and packetizes it. Game
// frames are all-intra-refresh P-frames: sizes vary mildly (±10%)
// around rate/fps.
func (gs *GameServer) emitFrame() {
	now := gs.sim.Now()
	mean := gs.RateMbps() * 1e6 / 8 / float64(gs.Cfg.FPS)
	// float64() keeps arm64 from fusing a product with the add beside
	// it; Float64 is itself a product once inlined.
	size := mean * (1 + float64((float64(gs.rng.Float64())-0.5)*0.2))
	if size < 120 {
		size = 120
	}
	pkts := gs.pack.Packetize(rtp.Unit{
		Bytes:      int(size),
		PTSSeconds: now.Seconds(),
		SVC:        rtp.LayerBase,
	})
	for _, rp := range pkts {
		rp.FrameID = uint64(gs.FramesSent) // frames are numbered from 0
		wire := units.ByteCount(rp.WireSize() + 28)
		p := gs.alloc.New(packet.KindVideo, gs.Cfg.FrameFlow, wire, now)
		p.Payload = rp
		gs.out.Handle(p)
	}
	gs.FramesSent++
}

// OnInput scores one uplink input event arriving at the server and feeds
// the ladder adaptation from the client's piggybacked late fraction.
func (gs *GameServer) OnInput(p *packet.Packet) {
	now := gs.sim.Now()
	gs.InputDelaysMS = append(gs.InputDelaysMS, float64(now-p.SentAt)/float64(time.Millisecond))
	st, ok := p.Payload.(*InputState)
	if !ok {
		return
	}
	if now-gs.lastShift < ladderShiftWindow {
		return
	}
	switch {
	case st.LateFrac > 0.10 && gs.rung > 0:
		gs.rung--
	case st.LateFrac < 0.02 && gs.rung < len(gs.Cfg.LadderMbps)-1:
		gs.rung++
	default:
		return
	}
	gs.lastShift = now
	gs.RungTrace = append(gs.RungTrace, gs.rung)
}

// GameServerMetrics summarizes the server-side QoE view.
type GameServerMetrics struct {
	InputP50MS, InputP95MS float64
	LateInputs             float64 // fraction over the 10 ms budget
	FinalRateMbps          float64
	RungShifts             int
}

// Metrics summarizes the input stream and the ladder history.
func (gs *GameServer) Metrics() GameServerMetrics {
	m := GameServerMetrics{
		InputP50MS:    stats.Quantile(gs.InputDelaysMS, 0.5),
		InputP95MS:    stats.Quantile(gs.InputDelaysMS, 0.95),
		FinalRateMbps: gs.RateMbps(),
		RungShifts:    len(gs.RungTrace),
	}
	late := 0
	for _, v := range gs.InputDelaysMS {
		if v > 10 {
			late++
		}
	}
	if n := len(gs.InputDelaysMS); n > 0 {
		m.LateInputs = float64(late) / float64(n)
	}
	return m
}

// GameClient is the UE side: a 125 Hz input-event source feeding the
// uplink, and the frame sink scoring downlink delivery.
type GameClient struct {
	sim   *sim.Simulator
	alloc *packet.Alloc
	out   packet.Handler // uplink path (capture point ①)
	flow  uint32
	budg  time.Duration

	seq uint32

	// Frame assembly: per-FrameID arrival bookkeeping. The downlink can
	// reorder packets (per-packet HARQ), so completion needs the frame's
	// true start seq, not the lowest seen so far — a marker arriving
	// first would otherwise look like a complete one-packet frame. The
	// packetizer's seqs are contiguous across frames, so frame N+1
	// starts right after frame N's marker; completion cascades in decode
	// order like a jitter buffer.
	asm        map[uint64]*gameFrameAsm
	nextStarts map[uint64]uint16 // start seq learned from the prior frame's marker
	anchored   bool              // the stream's first frame has been pinned to seq 0

	// FrameDelaysMS collects capture→complete-delivery delays per frame.
	FrameDelaysMS []float64
	FramesDone    int
	LateFrames    int

	// lateWindow is the rolling late indicator over the last 32 frames,
	// reported to the server in every input event.
	lateWindow  [32]bool
	lateIdx     int
	lateSamples int

	stopped bool
}

type gameFrameAsm struct {
	got        int
	startSeq   uint16
	markerSeq  uint16
	haveStart  bool
	haveMarker bool
	pts        time.Duration
}

// NewGameClient creates the UE endpoint: input events on inputFlow into
// out, frames scored against budget.
func NewGameClient(s *sim.Simulator, alloc *packet.Alloc, cfg GameConfig, out packet.Handler) *GameClient {
	cfg.defaults()
	if out == nil {
		out = packet.Discard
	}
	return &GameClient{
		sim:        s,
		alloc:      alloc,
		out:        out,
		flow:       cfg.InputFlow,
		budg:       cfg.FrameBudget,
		asm:        make(map[uint64]*gameFrameAsm),
		nextStarts: make(map[uint64]uint16),
	}
}

// Start begins the 125 Hz input stream until `until`.
func (gc *GameClient) Start(until time.Duration) {
	gc.sim.Every(0, 8*time.Millisecond, func() {
		if gc.stopped || gc.sim.Now() > until {
			return
		}
		gc.emitInput()
	})
}

// Stop halts input generation.
func (gc *GameClient) Stop() { gc.stopped = true }

// emitInput sends one ~100 B input event with a real sequence number
// (KindData joins the correlator like media) and the QoE piggyback.
func (gc *GameClient) emitInput() {
	now := gc.sim.Now()
	gc.seq++
	p := gc.alloc.New(packet.KindData, gc.flow, 100, now)
	p.Seq = gc.seq
	p.Payload = &InputState{Seq: gc.seq, LateFrac: gc.LateFrac()}
	gc.out.Handle(p)
}

// OnFrame ingests one downlink video packet (wire it to the UE's
// downlink demux) and scores the frame when its last packet lands.
func (gc *GameClient) OnFrame(p *packet.Packet) {
	rp, ok := p.Payload.(*rtp.Packet)
	if !ok {
		return
	}
	now := gc.sim.Now()
	a := gc.asm[rp.FrameID]
	if a == nil {
		a = &gameFrameAsm{pts: time.Duration(float64(rp.Timestamp) / 90000 * float64(time.Second))}
		if start, ok := gc.nextStarts[rp.FrameID]; ok {
			a.startSeq = start
			a.haveStart = true
			delete(gc.nextStarts, rp.FrameID)
		}
		gc.asm[rp.FrameID] = a
	}
	// Seq 0 anchors the whole stream: whichever frame carries it is the
	// first (the packetizer counts from zero), and every later frame's
	// start follows from markers. Only the true stream head qualifies —
	// a mid-stream uint16 wrap revisits seq 0 inside some frame.
	if !gc.anchored && rp.Seq == 0 {
		a.startSeq = 0
		a.haveStart = true
		gc.anchored = true
	}
	a.got++
	if rp.Marker {
		a.markerSeq = rp.Seq
		a.haveMarker = true
	}
	gc.completeFrom(rp.FrameID, now)
}

// completeFrom finishes the frame if fully assembled, then cascades: its
// marker pins the next frame's start seq, which may complete a frame
// that was only waiting to learn where it begins.
func (gc *GameClient) completeFrom(fid uint64, now time.Duration) {
	for {
		a := gc.asm[fid]
		if a == nil || !a.haveStart || !a.haveMarker || a.got != int(a.markerSeq-a.startSeq)+1 {
			return
		}
		delete(gc.asm, fid)
		delay := now - a.pts
		gc.FrameDelaysMS = append(gc.FrameDelaysMS, float64(delay)/float64(time.Millisecond))
		gc.FramesDone++
		late := delay > gc.budg
		if late {
			gc.LateFrames++
		}
		gc.lateWindow[gc.lateIdx] = late
		gc.lateIdx = (gc.lateIdx + 1) % len(gc.lateWindow)
		if gc.lateSamples < len(gc.lateWindow) {
			gc.lateSamples++
		}
		fid++
		start := a.markerSeq + 1
		if next := gc.asm[fid]; next != nil {
			next.startSeq = start
			next.haveStart = true
		} else {
			gc.nextStarts[fid] = start
		}
	}
}

// LateFrac reports the late-frame fraction over the rolling window.
func (gc *GameClient) LateFrac() float64 {
	if gc.lateSamples == 0 {
		return 0
	}
	late := 0
	for i := 0; i < gc.lateSamples; i++ {
		if gc.lateWindow[i] {
			late++
		}
	}
	return float64(late) / float64(gc.lateSamples)
}

// GameClientMetrics summarizes the client-side frame QoE.
type GameClientMetrics struct {
	FrameP95MS    float64
	LateFrames    float64 // fraction over the frame budget
	DeliveredFPS  float64
	FramesDone    int
	PendingFrames int
}

// Metrics summarizes frame delivery over a run of duration d.
func (gc *GameClient) Metrics(d time.Duration) GameClientMetrics {
	m := GameClientMetrics{
		FrameP95MS:    stats.Quantile(gc.FrameDelaysMS, 0.95),
		FramesDone:    gc.FramesDone,
		PendingFrames: len(gc.asm),
	}
	if gc.FramesDone > 0 {
		m.LateFrames = float64(gc.LateFrames) / float64(gc.FramesDone)
	}
	if d > 0 {
		m.DeliveredFPS = float64(gc.FramesDone) / d.Seconds()
	}
	return m
}
