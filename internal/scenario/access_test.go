package scenario

import (
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/units"
)

// TestEveryAccessRunsOneShard pins the one-engine result shape: whatever
// the access, a run has at least one shard, the top-level infrastructure
// aliases shard 0, and only the Access5G path owns a cell.
func TestEveryAccessRunsOneShard(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"5g":    func(c *Config) {},
		"wifi":  func(c *Config) { c.Access = AccessWiFi },
		"leo":   func(c *Config) { c.Access = AccessLEO },
		"wired": func(c *Config) { c.Access = AccessWired },
		"emulated": func(c *Config) {
			c.Emulated = true
			c.EmulatedSchedule = []units.ByteCount{c.RAN.SlotCapacity()}
		},
	} {
		res := short(func(c *Config) {
			c.Duration = time.Second
			mut(c)
		})
		if len(res.Shards) != 1 {
			t.Fatalf("%s: %d shards, want 1", name, len(res.Shards))
		}
		sr := res.Shards[0]
		if res.Sim != sr.Sim || res.Prober != sr.Prober || res.CapCore != sr.CapCore || res.CapSFU != sr.CapSFU {
			t.Fatalf("%s: top-level infrastructure does not alias shard 0", name)
		}
		if len(sr.UEs) != 1 || sr.UEs[0] != res.UEResult {
			t.Fatalf("%s: shard 0 does not hold the run's UE", name)
		}
		if name == "5g" {
			if len(sr.Cells) != 1 || len(sr.RANs) != 1 || res.RAN != sr.RANs[0] {
				t.Fatalf("5g: cells %v, %d RANs; want the implicit cell 0 aliased by RAN", sr.Cells, len(sr.RANs))
			}
		} else if len(sr.Cells) != 0 || len(sr.RANs) != 0 || res.RAN != nil {
			t.Fatalf("%s: a private-link access built cells %v", name, sr.Cells)
		}
		if len(res.Report.Packets) == 0 {
			t.Fatalf("%s: no packets correlated", name)
		}
	}
}

func TestAccessWiFiRuns(t *testing.T) {
	res := short(func(c *Config) { c.Access = AccessWiFi })
	if res.RAN != nil {
		t.Fatal("WiFi run should have no RAN")
	}
	if len(res.Report.Packets) == 0 {
		t.Fatal("no packets correlated")
	}
	if res.Receiver.Renderer.DisplayTimes.Len() < 100 {
		t.Fatalf("frames displayed = %d", res.Receiver.Renderer.DisplayTimes.Len())
	}
	// Contention delays are sub-slot-grid: spreads should NOT be locked
	// to the 2.5 ms quantum.
	_, coreSp := res.Report.SpreadsMS()
	offGrid := 0
	for _, sp := range coreSp {
		if r := sp / 2.5; sp > 0 && r != float64(int(r)) {
			offGrid++
		}
	}
	if offGrid == 0 {
		t.Fatal("WiFi spreads look slot-quantized; wrong substrate wired in?")
	}
}

func TestAccessLEORuns(t *testing.T) {
	res := short(func(c *Config) {
		c.Access = AccessLEO
		c.Duration = 40 * time.Second // span at least two handovers
	})
	sum := res.Report.DelaySummary(packet.KindVideo)
	if sum.P50 < 20 {
		t.Fatalf("LEO median %v ms below satellite propagation", sum.P50)
	}
	if res.Receiver.Renderer.DisplayTimes.Len() < 300 {
		t.Fatalf("frames displayed = %d", res.Receiver.Renderer.DisplayTimes.Len())
	}
}

func TestAccessWiredReference(t *testing.T) {
	res := short(func(c *Config) { c.Access = AccessWired })
	sum := res.Report.DelaySummary(packet.KindVideo)
	// Fixed 15 ms plus negligible serialization: a very tight band.
	if sum.P99-sum.P50 > 5 {
		t.Fatalf("wired reference not tight: p50=%v p99=%v", sum.P50, sum.P99)
	}
	if res.GCC.OveruseCount != 0 {
		t.Fatalf("wired path tripped GCC %d times", res.GCC.OveruseCount)
	}
}

func TestMouthToEarRecorded(t *testing.T) {
	res := short(nil)
	m2e := res.Receiver.Renderer.MouthToEarMS
	if len(m2e) == 0 {
		t.Fatal("no mouth-to-ear samples")
	}
	for _, v := range m2e {
		if v <= 0 || v > 2000 {
			t.Fatalf("mouth-to-ear %v ms implausible", v)
		}
	}
}

func TestTwoPartyDownlinkStable(t *testing.T) {
	res := short(func(c *Config) {
		c.TwoParty = true
		c.Duration = 20 * time.Second
		// Quiet channel so the asymmetry is purely structural.
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	if res.DLSender == nil || res.DLReceiver == nil {
		t.Fatal("two-party endpoints missing")
	}
	dl := res.DLReceiver.VideoOWDMS
	ul := res.Report.ULDelaysMS(packet.KindVideo)
	if len(dl) < 100 || len(ul) < 100 {
		t.Fatalf("samples: dl=%d ul=%d", len(dl), len(ul))
	}
	spread := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	// Takeaway (c): the downlink's jitter range is far below the
	// uplink's (no BSR cycle, no grant trickle).
	if spread(dl) >= spread(ul) {
		t.Fatalf("downlink jitter %v should be below uplink %v", spread(dl), spread(ul))
	}
	// And the far party's video actually renders at the UE host.
	if res.DLReceiver.Renderer.DisplayTimes.Len() < 200 {
		t.Fatalf("DL frames displayed = %d", res.DLReceiver.Renderer.DisplayTimes.Len())
	}
}

func TestTwoPartyFeedbackCompetesOnUplink(t *testing.T) {
	solo := short(func(c *Config) {
		c.Duration = 15 * time.Second
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	duo := short(func(c *Config) {
		c.TwoParty = true
		c.Duration = 15 * time.Second
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	// The DL receiver's RTCP stream adds uplink packets; the local
	// media must still flow (sanity, not a strict ordering claim).
	if duo.Receiver.Renderer.DisplayTimes.Len() < solo.Receiver.Renderer.DisplayTimes.Len()/2 {
		t.Fatal("two-party feedback starved the local uplink media")
	}
	// The remote sender's GCC must have received feedback (rate moved
	// off its initial value).
	if duo.DLSender == nil {
		t.Fatal("no DL sender")
	}
}

func TestEstimateOffsetsClosesTheLoop(t *testing.T) {
	res := short(func(c *Config) {
		c.Duration = 20 * time.Second
		c.SenderClockOffset = 30 * time.Millisecond
		c.ReceiverClockOffset = -20 * time.Millisecond
		c.EstimateOffsets = true
		// Quiet channel: NTP should converge cleanly.
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	if res.EstimatedOffsets == nil {
		t.Fatal("no estimated offsets")
	}
	sOff := res.EstimatedOffsets[packet.PointSender]
	rOff := res.EstimatedOffsets[packet.PointReceiver]
	if d := (sOff - 30*time.Millisecond).Abs(); d > 4*time.Millisecond {
		t.Fatalf("sender offset estimate %v, want ~30ms", sOff)
	}
	if d := (rOff + 20*time.Millisecond).Abs(); d > 2*time.Millisecond {
		t.Fatalf("receiver offset estimate %v, want ~-20ms", rOff)
	}
	// The correlated delays must be sane, not shifted by ±30 ms.
	sum := res.Report.DelaySummary(packet.KindVideo)
	if sum.Min < 0 || sum.P50 > 30 {
		t.Fatalf("correlated delays skewed: %+v", sum)
	}
}

func TestEstimateOffsetsVersusTruth(t *testing.T) {
	// Same run, truth offsets vs estimated: headline statistics agree to
	// within the NTP asymmetry bias.
	truth := short(func(c *Config) {
		c.Duration = 15 * time.Second
		c.SenderClockOffset = 12 * time.Millisecond
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	est := short(func(c *Config) {
		c.Duration = 15 * time.Second
		c.SenderClockOffset = 12 * time.Millisecond
		c.EstimateOffsets = true
		c.RAN.BLER = 0
		c.RAN.FadeMeanBad = 0
	})
	a := truth.Report.DelaySummary(packet.KindVideo)
	b := est.Report.DelaySummary(packet.KindVideo)
	if d := a.P50 - b.P50; d > 4 || d < -4 {
		t.Fatalf("p50 diverges: truth %.1f vs estimated %.1f", a.P50, b.P50)
	}
}
