package pcc

import (
	"slices"
	"testing"
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

// drive feeds n packets at 10 ms spacing with the given OWD function,
// feedback every 50 ms. Packet sizes track the controller's probing rate
// so acked throughput responds to the rate, as it does for a real paced
// sender — without this, the utility gradient has nothing to learn from.
func drive(c *Controller, n int, owd func(i int) time.Duration, recv func(i int) bool) {
	var hist cc.History
	var fb *rtp.Feedback
	for i := 0; i < n; i++ {
		seq := uint16(i)
		send := time.Duration(i) * 10 * time.Millisecond
		size := units.ByteCount(int64(c.TargetRate()) / 800) // rate × 10 ms / 8
		c.OnPacketSent(seq, size, send)
		hist.Add(cc.SentPacket{Seq: seq, Size: size, SentAt: send})
		if fb == nil {
			fb = &rtp.Feedback{SSRC: 1}
		}
		ok := recv == nil || recv(i)
		ai := rtp.ArrivalInfo{Seq: seq, Received: ok}
		if ok {
			ai.Arrival = send + owd(i)
		}
		fb.Reports = append(fb.Reports, ai)
		if len(fb.Reports) == 5 {
			c.OnFeedback(fb, &hist, send+50*time.Millisecond)
			fb = nil
		}
	}
}

// A feedback gap lets one report complete several probe pairs. Each
// decision steps from the rate the previous one left, so the pairs are
// decided in window order: the trace must equal the one from two reports
// that complete one pair each, on every run.
func TestPCCDecidesPairsInWindowOrder(t *testing.T) {
	trace := func(split bool) []float64 {
		c := New(500*units.Kbps, 100*units.Kbps, 5*units.Mbps)
		var hist cc.History
		fb := &rtp.Feedback{SSRC: 1}
		for i := 0; i < 100; i++ { // windows 0–4 over 1 s
			seq := uint16(i)
			send := time.Duration(i) * 10 * time.Millisecond
			size := units.ByteCount(int64(c.TargetRate()) / 800)
			c.OnPacketSent(seq, size, send)
			hist.Add(cc.SentPacket{Seq: seq, Size: size, SentAt: send})
			owd := 15*time.Millisecond + time.Duration(i%25)*1200*time.Microsecond
			fb.Reports = append(fb.Reports, rtp.ArrivalInfo{Seq: seq, Received: true, Arrival: send + owd})
		}
		if split { // windows 0–1, then the rest
			c.OnFeedback(&rtp.Feedback{SSRC: 1, Reports: fb.Reports[:40]}, &hist, 2*time.Second)
			fb.Reports = fb.Reports[40:]
		}
		c.OnFeedback(fb, &hist, 2*time.Second)
		return c.RateTrace
	}
	want := trace(true)
	if len(want) != 2 || want[0] == want[1] {
		t.Fatalf("reference trace %v: want two distinct decisions", want)
	}
	for run := 0; run < 30; run++ {
		if got := trace(false); !slices.Equal(got, want) {
			t.Fatalf("run %d: trace %v, want %v", run, got, want)
		}
	}
}

func TestPCCGrowsOnCleanPath(t *testing.T) {
	c := New(500*units.Kbps, 100*units.Kbps, 5*units.Mbps)
	drive(c, 3000, func(int) time.Duration { return 15 * time.Millisecond }, nil)
	if c.Decisions < 10 {
		t.Fatalf("decisions = %d", c.Decisions)
	}
	if c.TargetRate() <= 500*units.Kbps {
		t.Fatalf("clean path: rate %v did not grow", c.TargetRate())
	}
}

func TestPCCBacksOffOnLatencyRamp(t *testing.T) {
	c := New(units.Mbps, 100*units.Kbps, 5*units.Mbps)
	// Queue building: OWD grows 1 ms per packet, forever.
	drive(c, 2000, func(i int) time.Duration {
		return 15*time.Millisecond + time.Duration(i)*time.Millisecond
	}, nil)
	if c.TargetRate() >= units.Mbps {
		t.Fatalf("latency ramp: rate %v did not shrink", c.TargetRate())
	}
}

func TestPCCPenalizesLoss(t *testing.T) {
	c := New(units.Mbps, 100*units.Kbps, 5*units.Mbps)
	drive(c, 2000, func(int) time.Duration { return 15 * time.Millisecond },
		func(i int) bool { return i%4 != 0 }) // 25% loss
	if c.TargetRate() >= units.Mbps {
		t.Fatalf("25%% loss: rate %v did not shrink", c.TargetRate())
	}
}

func TestPCCProbesAroundBase(t *testing.T) {
	c := New(units.Mbps, 100*units.Kbps, 5*units.Mbps)
	up := c.TargetRate() // window 0 probes up
	c.curWindow = 1
	dn := c.TargetRate()
	if up <= dn {
		t.Fatalf("probe pair not ordered: up=%v dn=%v", up, dn)
	}
	ratio := float64(up) / float64(dn)
	want := (1 + epsilon) / (1 - epsilon)
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Fatalf("probe ratio %v, want %v", ratio, want)
	}
}

// The paper's §1 claim at unit scale: RAN-style sawtooth latency (no real
// queue) makes the learner oscillate more than on a clean path.
func TestPCCOscillatesOnRANSawtooth(t *testing.T) {
	variance := func(owd func(i int) time.Duration) float64 {
		c := New(units.Mbps, 100*units.Kbps, 5*units.Mbps)
		drive(c, 5000, owd, nil)
		if len(c.RateTrace) < 10 {
			t.Fatalf("trace = %d", len(c.RateTrace))
		}
		// Variance of per-decision relative steps.
		var mean, m2 float64
		steps := make([]float64, 0, len(c.RateTrace)-1)
		for i := 1; i < len(c.RateTrace); i++ {
			steps = append(steps, (c.RateTrace[i]-c.RateTrace[i-1])/c.RateTrace[i-1])
		}
		for _, s := range steps {
			mean += s
		}
		mean /= float64(len(steps))
		for _, s := range steps {
			m2 += (s - mean) * (s - mean)
		}
		return m2 / float64(len(steps))
	}
	clean := variance(func(int) time.Duration { return 15 * time.Millisecond })
	saw := variance(func(i int) time.Duration {
		return 5*time.Millisecond + time.Duration(i%25)*1200*time.Microsecond
	})
	if saw <= clean {
		t.Fatalf("sawtooth should raise decision variance: clean=%v saw=%v", clean, saw)
	}
}

func TestPCCMonitorIntervalStats(t *testing.T) {
	var m mi
	// OWD rising 1 ms per ms of arrival time.
	for i := 0; i < 10; i++ {
		m.addLatency(float64(i), float64(i))
	}
	if s := m.latencySlope(); s < 0.99 || s > 1.01 {
		t.Fatalf("slope = %v, want 1", s)
	}
	m.lost, m.recv = 1, 3
	if m.lossRate() != 0.25 {
		t.Fatalf("lossRate = %v", m.lossRate())
	}
	var empty mi
	if empty.latencySlope() != 0 || empty.lossRate() != 0 {
		t.Fatal("empty interval stats should be zero")
	}
}

func TestPCCName(t *testing.T) {
	if New(1, 1, 1).Name() != "pcc-vivace" {
		t.Fatal("name")
	}
}
