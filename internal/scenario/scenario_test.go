package scenario

import (
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/ran"
	"athena/internal/units"
)

func short(mut func(*Config)) *Result {
	cfg := Defaults()
	cfg.Duration = 10 * time.Second
	if mut != nil {
		mut(&cfg)
	}
	return Run(cfg)
}

func TestRunBasic5G(t *testing.T) {
	res := short(nil)
	if res.Report == nil || len(res.Report.Packets) == 0 {
		t.Fatal("no correlated packets")
	}
	if len(res.CapSender.Records) == 0 || len(res.CapCore.Records) == 0 ||
		len(res.CapSFU.Records) == 0 || len(res.CapReceiver.Records) == 0 {
		t.Fatal("capture points empty")
	}
	if res.RAN == nil || len(res.RAN.Telemetry.Records) == 0 {
		t.Fatal("no PHY telemetry")
	}
	if len(res.Prober.Results) < 100 {
		t.Fatalf("probes = %d", len(res.Prober.Results))
	}
	if res.Receiver.Renderer.DisplayTimes.Len() < 100 {
		t.Fatalf("frames displayed = %d", res.Receiver.Renderer.DisplayTimes.Len())
	}
}

func TestVideoSeesULDelayAudioLess(t *testing.T) {
	res := short(nil)
	v := res.Report.DelaySummary(packet.KindVideo)
	a := res.Report.DelaySummary(packet.KindAudio)
	if v.Count == 0 || a.Count == 0 {
		t.Fatal("missing delay samples")
	}
	// Fig 4: audio (single small packets) experiences lower median delay.
	if a.P50 >= v.P50 {
		t.Fatalf("audio p50 %v should be below video p50 %v", a.P50, v.P50)
	}
}

func TestDelaySpreadQuantized(t *testing.T) {
	res := short(nil)
	_, coreSp := res.Report.SpreadsMS()
	if len(coreSp) == 0 {
		t.Fatal("no spreads")
	}
	nonzero := 0
	for _, sp := range coreSp {
		// Fig 5: spreads step in 2.5 ms increments.
		rem := sp - float64(int(sp/2.5))*2.5
		if rem > 0.01 && rem < 2.49 {
			t.Fatalf("spread %v ms not on the 2.5 ms grid", sp)
		}
		if sp > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all spreads zero; RAN not spreading frames")
	}
}

func TestEmulatedBaselineSmoother(t *testing.T) {
	// First run 5G to capture the TB schedule, then replay it on the
	// emulated wired path (the Fig 7 methodology).
	g5 := short(nil)
	sched := TBSchedule(g5)
	if len(sched) == 0 {
		t.Fatal("no TB schedule")
	}
	em := short(func(c *Config) {
		c.Emulated = true
		c.EmulatedSchedule = sched
	})
	if em.RAN != nil {
		t.Fatal("emulated run should have no RAN")
	}
	// Frame-level jitter must be lower on the emulated path.
	j5 := mean(g5.Receiver.FrameJitter)
	je := mean(em.Receiver.FrameJitter)
	if je >= j5 {
		t.Fatalf("emulated jitter %v should be below 5G %v", je, j5)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSpikeTriggersModeDowngrade(t *testing.T) {
	res := short(func(c *Config) {
		c.Duration = 20 * time.Second
		c.Spikes = []Spike{{Start: 5 * time.Second, End: 9 * time.Second, Extra: 1200 * time.Millisecond}}
	})
	if res.Sender.Adapt().ModeChanges() == 0 {
		t.Fatal("1.2s delay spike did not change mode")
	}
}

func TestJitterEpisodeTriggersSkipping(t *testing.T) {
	res := short(func(c *Config) {
		c.Duration = 20 * time.Second
		c.Jitters = []JitterEpisode{{Start: 5 * time.Second, End: 15 * time.Second, Amp: 120 * time.Millisecond}}
	})
	if res.Sender.SkipEvents == 0 {
		t.Fatal("jitter episode did not trigger frame skipping")
	}
}

func TestGCCTraceCaptured(t *testing.T) {
	res := short(func(c *Config) { c.CaptureGCC = true })
	if res.GCC == nil || len(res.GCC.Trace) == 0 {
		t.Fatal("GCC trace empty")
	}
}

func TestPHYAwareOutperformsOnIdleCell(t *testing.T) {
	plain := short(func(c *Config) { c.Duration = 30 * time.Second })
	aware := short(func(c *Config) {
		c.Duration = 30 * time.Second
		c.Controller = CtlPHYAware
	})
	if plain.GCC.OveruseCount <= aware.GCC.OveruseCount {
		t.Fatalf("phy-aware should see fewer overuses: plain=%d aware=%d",
			plain.GCC.OveruseCount, aware.GCC.OveruseCount)
	}
}

func TestMaskedFeedbackReducesOveruse(t *testing.T) {
	plain := short(func(c *Config) { c.Duration = 30 * time.Second })
	masked := short(func(c *Config) {
		c.Duration = 30 * time.Second
		c.Controller = CtlMaskedGCC
	})
	if masked.GCC.OveruseCount >= plain.GCC.OveruseCount {
		t.Fatalf("masking should reduce overuse: plain=%d masked=%d",
			plain.GCC.OveruseCount, masked.GCC.OveruseCount)
	}
}

func TestAppAwareSchedulerImprovesFrameDelay(t *testing.T) {
	base := short(func(c *Config) { c.Duration = 15 * time.Second })
	aware := short(func(c *Config) {
		c.Duration = 15 * time.Second
		c.Sched = ran.SchedAppAware
		c.AttachMeta = true
	})
	b := mean(base.Report.FrameDelaysMS())
	a := mean(aware.Report.FrameDelaysMS())
	if a >= b {
		t.Fatalf("app-aware mean frame delay %v should beat default %v", a, b)
	}
}

func TestCrossTrafficPhases(t *testing.T) {
	res := short(func(c *Config) {
		c.Duration = 20 * time.Second
		c.CrossUEs = 6
		c.CrossPhases = []ran.CrossPhase{
			{Start: 0, Rate: 0},
			{Start: 10 * time.Second, Rate: 18 * units.Mbps},
		}
	})
	// Delay in the loaded half should exceed the idle half.
	idle := res.Sender.OWDSeries.Window(2*time.Second, 9*time.Second)
	load := res.Sender.OWDSeries.Window(12*time.Second, 19*time.Second)
	if len(idle) == 0 || len(load) == 0 {
		t.Fatal("missing OWD samples")
	}
	if mean(load) <= mean(idle) {
		t.Fatalf("cross load should raise OWD: idle=%v loaded=%v", mean(idle), mean(load))
	}
}

func TestECNMarksReachL4S(t *testing.T) {
	res := short(func(c *Config) {
		c.Duration = 20 * time.Second
		c.Controller = CtlL4S
		c.ECN = true
		c.CrossUEs = 4
		c.CrossPhases = []ran.CrossPhase{{Start: 0, Rate: 16 * units.Mbps}}
		c.InitialRate = 2 * units.Mbps
	})
	_ = res
	// CE marks should appear at the receiver under load.
	ce := 0
	for _, r := range res.CapReceiver.Records {
		if r.ECN == packet.ECNCE {
			ce++
		}
	}
	if ce == 0 {
		t.Fatal("no CE marks under load with ECN enabled")
	}
}

func TestTBScheduleShape(t *testing.T) {
	res := short(nil)
	sched := TBSchedule(res)
	var total units.ByteCount
	for _, b := range sched {
		total += b
	}
	if total == 0 {
		t.Fatal("empty TB schedule")
	}
	if TBSchedule(&Result{Cfg: res.Cfg, TopologyResult: &TopologyResult{}}) != nil {
		t.Fatal("nil RAN should yield nil schedule")
	}
}

func TestDeterminism(t *testing.T) {
	a := short(nil)
	b := short(nil)
	if len(a.CapCore.Records) != len(b.CapCore.Records) {
		t.Fatalf("nondeterministic capture sizes: %d vs %d",
			len(a.CapCore.Records), len(b.CapCore.Records))
	}
	if a.Sender.RateSeries.Len() != b.Sender.RateSeries.Len() {
		t.Fatal("nondeterministic rate series")
	}
	av, bv := a.Sender.RateSeries.Values(), b.Sender.RateSeries.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("rate diverged at %d: %v vs %v", i, av[i], bv[i])
		}
	}
}
