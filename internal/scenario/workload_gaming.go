package scenario

import (
	"time"

	"athena/internal/apps"
	"athena/internal/packet"
	"athena/internal/ran"
)

// gamingWorkload is the cloud-gaming family: a GameServer on the wired
// side streams 60 fps ladder-paced video down the shared cell while the
// UE's GameClient uplinks 125 Hz input events. The uplink input stream
// rides the real capture path (points ① → ② → ④ = the server's ingress),
// so input-event delay is correlated and attributed exactly like media;
// the downlink frames ride the TwoParty far-party path (15 ms wired leg,
// then SendDownlink).
type gamingWorkload struct {
	ub     *ueBuild
	server *apps.GameServer
	client *apps.GameClient
	until  time.Duration
}

func (w *gamingWorkload) Kind() WorkloadKind { return WorkloadCloudGaming }

func (w *gamingWorkload) Hint() ran.AppHintClass { return ran.HintLatency }

func (w *gamingWorkload) Build(b *build, ub *ueBuild) {
	s := b.s
	w.until = b.top.Duration
	cfg := apps.GameConfig{
		InputFlow: ub.flows.Video,
		FrameFlow: ub.flows.DLVideo,
	}
	frameOut := packet.HandlerFunc(func(p *packet.Packet) {
		s.After(15*time.Millisecond, func() { ub.servingCell.SendDownlink(ub.ranUE, p) })
	})
	w.server = apps.NewGameServer(s, &b.alloc, cfg, s.NewStream(), frameOut)
	w.client = apps.NewGameClient(s, &b.alloc, cfg, ub.res.CapSender)
	ub.ranUE.Downlink = packet.HandlerFunc(func(p *packet.Packet) {
		if ub.handleNTPReply(s, p) {
			return
		}
		w.client.OnFrame(p)
	})
}

// WiredArrival is the server's ingress: input events arriving over the
// full uplink path.
func (w *gamingWorkload) WiredArrival(p *packet.Packet) { w.server.OnInput(p) }

func (w *gamingWorkload) Start() {
	w.client.Start(w.until)
	w.server.Start(w.until)
}

func (w *gamingWorkload) Stop() {
	w.client.Stop()
	w.server.Stop()
}

// Score summarizes both directions: input-event delay at the server,
// frame delivery at the client, and where the ladder ended up.
func (w *gamingWorkload) Score(d time.Duration) WorkloadScore {
	sm := w.server.Metrics()
	cm := w.client.Metrics(d)
	return WorkloadScore{Kind: WorkloadCloudGaming, Scalars: map[string]float64{
		"input_p50_ms":  sm.InputP50MS,
		"input_p95_ms":  sm.InputP95MS,
		"late_inputs":   sm.LateInputs,
		"frame_p95_ms":  cm.FrameP95MS,
		"late_frames":   cm.LateFrames,
		"delivered_fps": cm.DeliveredFPS,
		"frames_sent":   float64(w.server.FramesSent),
		"frames_stuck":  float64(cm.PendingFrames),
		"rate_mbps":     sm.FinalRateMbps,
	}}
}
