package scenario

import (
	"time"

	"athena/internal/apps"
	"athena/internal/netem"
	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

// bulkWorkload is the elastic background-upload family: a windowed AIMD
// sender saturates the UE uplink with 1200 B data packets while the
// wired-side receiver returns cumulative acks every 25 ms over the
// (reliable, possibly reordering) downlink. Scored on goodput — it is
// the family the QoE-aware scheduler deprioritizes, and the one whose
// congestion response shows scheduler-induced drops.
type bulkWorkload struct {
	ub    *ueBuild
	send  *apps.BulkSender
	recv  *apps.BulkReceiver
	until time.Duration
}

func (w *bulkWorkload) Kind() WorkloadKind { return WorkloadBulkTransfer }

func (w *bulkWorkload) Hint() ran.AppHintClass { return ran.HintThroughput }

func (w *bulkWorkload) Build(b *build, ub *ueBuild) {
	s := b.s
	w.until = b.top.Duration
	// Acks cross the same 15 ms wired return leg as VCA feedback before
	// entering the shared downlink.
	ackBack := netem.NewLink(s, "recv-core", 15*time.Millisecond, units.Gbps,
		packet.HandlerFunc(func(p *packet.Packet) {
			ub.servingCell.SendDownlink(ub.ranUE, p)
		}))
	w.recv = apps.NewBulkReceiver(s, &b.alloc, ub.flows.DLVideo, ackBack)
	w.send = apps.NewBulkSender(s, &b.alloc, ub.flows.Video, ub.res.CapSender)
	ub.ranUE.Downlink = packet.HandlerFunc(func(p *packet.Packet) {
		if ub.handleNTPReply(s, p) {
			return
		}
		if a, ok := p.Payload.(*apps.BulkAck); ok {
			w.send.OnAck(a)
		}
	})
}

// WiredArrival is the receiver's ingress: data packets that survived the
// uplink.
func (w *bulkWorkload) WiredArrival(p *packet.Packet) { w.recv.OnData(p) }

func (w *bulkWorkload) Start() {
	w.recv.Start(w.until)
	w.send.Start(w.until)
}

func (w *bulkWorkload) Stop() {
	w.send.Stop()
	w.recv.Stop()
}

// Score is throughput-centric: delivered goodput, the final window, and
// how often the sender backed off.
func (w *bulkWorkload) Score(d time.Duration) WorkloadScore {
	return WorkloadScore{Kind: WorkloadBulkTransfer, Scalars: map[string]float64{
		"goodput_mbps": w.recv.GoodputMbps(d),
		"cwnd":         w.send.Window(),
		"halvings":     float64(w.send.Halvings),
		"sent":         float64(w.send.Sent),
	}}
}
