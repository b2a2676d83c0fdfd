package gcc

import (
	"testing"
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

func BenchmarkGCCFeedbackProcessing(b *testing.B) {
	g := New(units.Mbps, 100*units.Kbps, 5*units.Mbps)
	var hist cc.History
	seq := uint16(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb := &rtp.Feedback{SSRC: 1}
		for j := 0; j < 5; j++ {
			send := time.Duration(i*5+j) * 10 * time.Millisecond
			hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: send})
			fb.Reports = append(fb.Reports, rtp.ArrivalInfo{
				Seq: seq, Received: true, Arrival: send + 15*time.Millisecond,
			})
			seq++
		}
		g.OnFeedback(fb, &hist, time.Duration(i)*50*time.Millisecond)
	}
}
