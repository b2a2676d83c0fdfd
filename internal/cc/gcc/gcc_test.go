package gcc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/cc"
	"athena/internal/rtp"
	"athena/internal/units"
)

func ms(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestInterArrivalGrouping(t *testing.T) {
	var ia interArrival
	// Burst 1: two packets at 0 and 1ms. Burst 2 at 10,11ms. Burst 3 at 20.
	if _, ok := ia.add(0, ms(30)); ok {
		t.Fatal("first packet should not complete a group")
	}
	if _, ok := ia.add(ms(1), ms(31)); ok {
		t.Fatal("same burst should not complete a group")
	}
	if _, ok := ia.add(ms(10), ms(41)); ok {
		t.Fatal("second group start: no previous complete pair yet")
	}
	ia.add(ms(11), ms(42))
	d, ok := ia.add(ms(20), ms(52))
	if !ok {
		t.Fatal("third group start should emit deltas between groups 1 and 2")
	}
	if d.send != ms(10) { // 11ms - 1ms
		t.Errorf("send delta = %v", d.send)
	}
	if d.arrival != ms(11) { // 42 - 31
		t.Errorf("arrival delta = %v", d.arrival)
	}
	if d.d != ms(1) {
		t.Errorf("d = %v", d.d)
	}
}

func TestTrendlineConstantDelayZeroSlope(t *testing.T) {
	var tl trendline
	for i := 0; i < 50; i++ {
		tl.update(0, time.Duration(i)*10*time.Millisecond)
	}
	if tl.value() != 0 {
		t.Fatalf("slope = %v, want 0", tl.value())
	}
}

func TestTrendlineDetectsRamp(t *testing.T) {
	var tl trendline
	// Each group arrives 2ms later than sent relative to the previous:
	// accumulated delay ramps, slope should go positive.
	for i := 0; i < 50; i++ {
		tl.update(2*time.Millisecond, time.Duration(i)*10*time.Millisecond)
	}
	if tl.value() <= 0 {
		t.Fatalf("slope = %v, want > 0", tl.value())
	}
}

func TestTrendlineDetectsDrain(t *testing.T) {
	var tl trendline
	for i := 0; i < 50; i++ {
		tl.update(-time.Millisecond, time.Duration(i)*10*time.Millisecond)
	}
	if tl.value() >= 0 {
		t.Fatalf("slope = %v, want < 0", tl.value())
	}
}

// Property: feeding a perfect linear ramp recovers the slope of the
// smoothed accumulated delay, which converges near the per-group delta
// divided by the group spacing.
func TestTrendlineSlopeProperty(t *testing.T) {
	f := func(deltaMs8 int8) bool {
		delta := time.Duration(deltaMs8) * time.Millisecond / 4
		var tl trendline
		for i := 0; i < 200; i++ {
			tl.update(delta, time.Duration(i)*10*time.Millisecond)
		}
		want := float64(delta) / float64(10*time.Millisecond)
		got := tl.value()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.05 || (want != 0 && diff/absf(want) < 0.2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSlopeDegenerate(t *testing.T) {
	if got := slope([]float64{1, 1, 1}, []float64{1, 2, 3}, 42); got != 42 {
		t.Fatalf("degenerate slope = %v, want prev", got)
	}
}

func TestDetectorOveruseNeedsPersistence(t *testing.T) {
	d := newDetector()
	// A single spike above threshold must not trigger overuse.
	sig := d.detect(50, 1, ms(5), 0)
	if sig == UsageOveruse {
		t.Fatal("single spike should not be overuse")
	}
	// Sustained high modified trend does.
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now += ms(5)
		sig = d.detect(50, 1, ms(5), now)
	}
	if sig != UsageOveruse {
		t.Fatalf("sustained spike should be overuse, got %v", sig)
	}
}

func TestDetectorUnderuse(t *testing.T) {
	d := newDetector()
	if sig := d.detect(-50, -1, ms(5), 0); sig != UsageUnderuse {
		t.Fatalf("got %v", sig)
	}
}

func TestDetectorThresholdAdapts(t *testing.T) {
	d := newDetector()
	t0 := d.threshold
	// Repeated moderate |m| just above threshold raises it slowly.
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += ms(5)
		d.detect(t0+5, 0.1, ms(5), now)
	}
	if d.threshold <= t0 {
		t.Fatalf("threshold did not rise: %v", d.threshold)
	}
	// Quiet period decays it back down.
	high := d.threshold
	for i := 0; i < 200; i++ {
		now += ms(5)
		d.detect(0, 0, ms(5), now)
	}
	if d.threshold >= high {
		t.Fatalf("threshold did not decay: %v", d.threshold)
	}
	if d.threshold < thresholdMin-1e-9 {
		t.Fatalf("threshold below min: %v", d.threshold)
	}
}

func TestDetectorBigSpikeDoesNotAdapt(t *testing.T) {
	d := newDetector()
	t0 := d.threshold
	d.detect(t0+maxAdaptOffset+100, 1, ms(5), ms(5))
	if d.threshold != t0 {
		t.Fatalf("huge outlier adapted threshold: %v", d.threshold)
	}
}

func TestUsageString(t *testing.T) {
	if UsageNormal.String() != "normal" || UsageOveruse.String() != "overuse" || UsageUnderuse.String() != "underuse" {
		t.Fatal("usage names")
	}
}

func TestAIMDIncreaseOnNormal(t *testing.T) {
	a := newAIMD(500*units.Kbps, 50*units.Kbps, 5*units.Mbps)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 100 * time.Millisecond
		a.update(UsageNormal, 500*units.Kbps, now)
	}
	if a.rate <= 500*units.Kbps {
		t.Fatalf("rate did not grow: %v", a.rate)
	}
}

func TestAIMDDecreaseOnOveruse(t *testing.T) {
	a := newAIMD(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	a.update(UsageOveruse, 800*units.Kbps, time.Second)
	want := units.BitRate(0.85 * 800000)
	if a.rate != want {
		t.Fatalf("rate = %v, want %v", a.rate, want)
	}
}

func TestAIMDDecreaseNeverIncreases(t *testing.T) {
	a := newAIMD(200*units.Kbps, 50*units.Kbps, 5*units.Mbps)
	a.update(UsageOveruse, 10*units.Mbps, time.Second) // acked way above current
	if a.rate > 200*units.Kbps {
		t.Fatalf("overuse raised the rate to %v", a.rate)
	}
}

func TestAIMDClamps(t *testing.T) {
	a := newAIMD(units.Mbps, 900*units.Kbps, 1100*units.Kbps)
	for i := 1; i < 50; i++ {
		a.update(UsageNormal, units.Mbps, time.Duration(i)*100*time.Millisecond)
	}
	if a.rate > 1100*units.Kbps {
		t.Fatalf("exceeded max: %v", a.rate)
	}
	a.update(UsageOveruse, 100*units.Kbps, 10*time.Second)
	if a.rate < 900*units.Kbps {
		t.Fatalf("fell below min: %v", a.rate)
	}
}

func TestAIMDHoldOnUnderuse(t *testing.T) {
	a := newAIMD(units.Mbps, 50*units.Kbps, 5*units.Mbps)
	r0 := a.rate
	a.update(UsageUnderuse, units.Mbps, time.Second)
	if a.rate != r0 {
		t.Fatalf("underuse changed rate: %v", a.rate)
	}
}

// driveGCC runs a GCC sender against a synthetic path described by
// delayFn(sendTime) and returns the controller.
func driveGCC(g *GCC, seconds int, delayFn func(i int, send time.Duration) time.Duration) {
	var hist cc.History
	seq := uint16(0)
	interval := 10 * time.Millisecond
	var fb *rtp.Feedback
	for i := 0; i < seconds*100; i++ {
		send := time.Duration(i) * interval
		hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: send})
		arrival := send + delayFn(i, send)
		if fb == nil {
			fb = &rtp.Feedback{SSRC: 1}
		}
		fb.Reports = append(fb.Reports, rtp.ArrivalInfo{Seq: seq, Received: true, Arrival: arrival})
		seq++
		if len(fb.Reports) == 5 { // feedback every 50ms
			g.OnFeedback(fb, &hist, send+50*time.Millisecond)
			fb = nil
		}
	}
}

func TestGCCStablePathNoOveruseAndGrowth(t *testing.T) {
	g := New(500*units.Kbps, 50*units.Kbps, 3*units.Mbps)
	driveGCC(g, 20, func(i int, _ time.Duration) time.Duration { return 15 * time.Millisecond })
	if g.OveruseCount != 0 {
		t.Fatalf("overuse on constant-delay path: %d", g.OveruseCount)
	}
	if g.TargetRate() <= 500*units.Kbps {
		t.Fatalf("rate did not grow on clean path: %v", g.TargetRate())
	}
}

func TestGCCRampTriggersOveruseAndDecrease(t *testing.T) {
	g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
	// Delay grows 1ms every packet: a filling queue.
	driveGCC(g, 5, func(i int, _ time.Duration) time.Duration {
		return 15*time.Millisecond + time.Duration(i)*time.Millisecond
	})
	if g.OveruseCount == 0 {
		t.Fatal("no overuse on a steadily filling queue")
	}
	if g.TargetRate() >= units.Mbps {
		t.Fatalf("rate did not decrease: %v", g.TargetRate())
	}
}

// The paper's Fig 10 mechanism: RAN-style sawtooth delays (slot alignment
// + BSR cycles) on an otherwise idle path make the filtered gradient
// fluctuate and trip the detector even though no queue is building.
func ranSawtooth(i int, _ time.Duration) time.Duration {
	// Idle-cell 5G uplink pattern (Fig 9a): within each burst episode the
	// per-packet delay ramps as later packets wait for successive 2.5 ms
	// proactive slots and finally the 10 ms BSR grant, then collapses at
	// the next episode. The ramp sustains a positive filtered gradient
	// long enough to trip the detector even though no queue is building.
	phase := i % 25
	d := 5*time.Millisecond + time.Duration(phase)*1200*time.Microsecond
	d += time.Duration(i%2) * 2500 * time.Microsecond // slot quantization
	return d
}

func TestGCCPhantomOveruseOn5GSawtooth(t *testing.T) {
	g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
	g.CaptureTrace = true
	driveGCC(g, 30, ranSawtooth)
	if g.OveruseCount == 0 {
		t.Fatal("expected phantom overuse on RAN sawtooth delays")
	}
	if len(g.Trace) == 0 {
		t.Fatal("trace not captured")
	}
	// The trace must show gradient fluctuation in both directions.
	var hasPos, hasNeg bool
	for _, tp := range g.Trace {
		if tp.Trend > 0.01 {
			hasPos = true
		}
		if tp.Trend < -0.01 {
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		t.Fatal("gradient did not fluctuate both ways")
	}
}

// §5.3: informing GCC of the RAN-induced delay component removes the
// phantom overuse entirely.
func TestGCCDelayAdjustRemovesPhantomOveruse(t *testing.T) {
	g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
	// The adjuster knows exactly the RAN-induced component.
	idx := map[uint16]int{}
	n := 0
	g.DelayAdjust = func(seq uint16) (time.Duration, bool) {
		return ranSawtooth(idx[seq], 0) - 5*time.Millisecond, true
	}
	var hist cc.History
	seq := uint16(0)
	var fb *rtp.Feedback
	for i := 0; i < 3000; i++ {
		send := time.Duration(i) * 10 * time.Millisecond
		idx[seq] = i
		hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: send})
		if fb == nil {
			fb = &rtp.Feedback{SSRC: 1}
		}
		fb.Reports = append(fb.Reports, rtp.ArrivalInfo{Seq: seq, Received: true, Arrival: send + ranSawtooth(i, send)})
		seq++
		if len(fb.Reports) == 5 {
			g.OnFeedback(fb, &hist, send+50*time.Millisecond)
			fb = nil
		}
		n++
	}
	if g.OveruseCount != 0 {
		t.Fatalf("PHY-informed GCC still detected %d overuses", g.OveruseCount)
	}
}

func TestGCCLossController(t *testing.T) {
	g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
	// Feedback with 50% loss repeatedly.
	var hist cc.History
	for i := 0; i < 50; i++ {
		fb := &rtp.Feedback{SSRC: 1}
		for j := 0; j < 10; j++ {
			seq := uint16(i*10 + j)
			hist.Add(cc.SentPacket{Seq: seq, Size: 1200, SentAt: time.Duration(i*10+j) * 10 * time.Millisecond})
			fb.Reports = append(fb.Reports, rtp.ArrivalInfo{
				Seq: seq, Received: j%2 == 0,
				Arrival: time.Duration(i*10+j)*10*time.Millisecond + 15*time.Millisecond,
			})
		}
		g.OnFeedback(fb, &hist, time.Duration(i)*100*time.Millisecond)
	}
	if g.TargetRate() >= units.Mbps {
		t.Fatalf("50%% loss did not reduce rate: %v", g.TargetRate())
	}
}

func TestGCCIgnoresUnknownSeqs(t *testing.T) {
	g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
	fb := &rtp.Feedback{SSRC: 1, Reports: []rtp.ArrivalInfo{
		{Seq: 999, Received: true, Arrival: time.Millisecond},
	}}
	g.OnFeedback(fb, &cc.History{}, time.Second) // must not panic
	if g.Name() != "gcc" {
		t.Fatal("name")
	}
}

func TestGCCDeterministic(t *testing.T) {
	run := func() units.BitRate {
		g := New(units.Mbps, 50*units.Kbps, 3*units.Mbps)
		rng := rand.New(rand.NewSource(5))
		driveGCC(g, 10, func(i int, _ time.Duration) time.Duration {
			return time.Duration(10+rng.Intn(20)) * time.Millisecond
		})
		return g.TargetRate()
	}
	if run() != run() {
		t.Fatal("nondeterministic")
	}
}
