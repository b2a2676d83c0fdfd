package ran

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
	"athena/internal/units"
)

// qoeCell builds a two-UE cell — UE 1 carries hint a, UE 2 hint b — and
// loads both with the same periodic backlog for dur. It returns the mean
// uplink delay per UE.
func qoeCellDelays(t *testing.T, sched SchedulerKind, a, b AppHintClass, dur time.Duration) [2]time.Duration {
	t.Helper()
	cfg := Defaults()
	s := sim.New(7)
	core := &collector{s: s}
	r := New(s, cfg, core)
	ues := [2]*UE{r.AttachUE(1, sched), r.AttachUE(2, sched)}
	ues[0].Hint, ues[1].Hint = a, b
	var alloc packet.Alloc
	// Joint offered load well above one slot's budget so arbitration
	// order decides who waits.
	s.Every(0, 5*time.Millisecond, func() {
		for i, ue := range ues {
			for j := 0; j < 8; j++ {
				ue.Handle(alloc.New(packet.KindVideo, uint32(i+1), 1200, s.Now()))
			}
		}
	})
	s.RunUntil(dur)
	var sum [2]time.Duration
	var n [2]int
	for i, p := range core.pkts {
		u := int(p.Flow) - 1
		sum[u] += core.at[i] - p.SentAt
		n[u]++
	}
	for u := range n {
		if n[u] == 0 {
			t.Fatalf("UE %d delivered nothing under %v", u+1, sched)
		}
	}
	return [2]time.Duration{sum[0] / time.Duration(n[0]), sum[1] / time.Duration(n[1])}
}

// The QoE-aware cell must serve the latency-hinted UE ahead of the
// throughput-hinted one on a congested cell, and the gap must be wider
// than whatever asymmetry default arbitration shows for the same load.
func TestQoEAwareTierOrdering(t *testing.T) {
	base := qoeCellDelays(t, SchedCombined, HintLatency, HintThroughput, 2*time.Second)
	qoe := qoeCellDelays(t, SchedQoEAware, HintLatency, HintThroughput, 2*time.Second)
	if qoe[0] >= qoe[1] {
		t.Fatalf("qoe-aware: latency UE (%v) not served before throughput UE (%v)", qoe[0], qoe[1])
	}
	gapBase := float64(base[1]-base[0]) / float64(base[0]+1)
	gapQoE := float64(qoe[1]-qoe[0]) / float64(qoe[0]+1)
	if gapQoE <= gapBase {
		t.Fatalf("qoe-aware tier gap (%.3f) not wider than default arbitration (%.3f)", gapQoE, gapBase)
	}
}

// Regression for speculative-grant starvation: a lone throughput-hinted
// UE on a QoE-aware cell gets no proactive grants, but its BSR-requested
// grants must still drain the buffer — the scheduler reclaims the unused
// tail of other UEs' proactive allocations instead of charging the slot
// for bytes nobody sent.
func TestQoEAwareServesLoneThroughputUE(t *testing.T) {
	cfg := Defaults()
	s := sim.New(3)
	core := &collector{s: s}
	r := New(s, cfg, core)
	// Three idle latency-tier UEs whose proactive grants alone would
	// exceed the slot budget if charged at grant size.
	for i := 0; i < 3; i++ {
		u := r.AttachUE(uint32(10+i), SchedQoEAware)
		u.Hint = HintConversational
	}
	bulk := r.AttachUE(1, SchedQoEAware)
	bulk.Hint = HintThroughput
	var alloc packet.Alloc
	sent := 0
	s.Every(0, 10*time.Millisecond, func() {
		bulk.Handle(alloc.New(packet.KindData, 1, 1200, s.Now()))
		sent++
	})
	s.RunUntil(2 * time.Second)
	if len(core.pkts) == 0 {
		t.Fatal("throughput-hinted UE starved on an otherwise idle qoe-aware cell")
	}
	if got := len(core.pkts); got < sent*9/10 {
		t.Fatalf("bulk delivery %d/%d, expected the idle cell to drain it", got, sent)
	}
}

// Hints are advisory outside SchedQoEAware: setting them on a default
// cell must not perturb the delivery trace at all.
func TestHintsInertWithoutQoEScheduler(t *testing.T) {
	trace := func(hints bool) string {
		cfg := Defaults()
		cfg.BLER = 0.1
		s := sim.New(11)
		core := &collector{s: s}
		r := New(s, cfg, core)
		ues := [2]*UE{r.AttachUE(1, SchedCombined), r.AttachUE(2, SchedBSROnly)}
		if hints {
			ues[0].Hint = HintThroughput
			ues[1].Hint = HintLatency
		}
		var alloc packet.Alloc
		s.Every(0, 7*time.Millisecond, func() {
			for i, ue := range ues {
				ue.Handle(alloc.New(packet.KindVideo, uint32(i+1), 900, s.Now()))
			}
		})
		s.RunUntil(time.Second)
		out := ""
		for i, p := range core.pkts {
			out += fmt.Sprintf("%d/%d@%v;", p.Flow, p.ID, core.at[i])
		}
		return out
	}
	if trace(false) != trace(true) {
		t.Fatal("app hints changed a non-QoE cell's delivery trace")
	}
}

// The QoE grant policy still hands speculative grants to unhinted UEs
// (tier 2) — only the elastic tier forgoes them — so a plain UE moved to
// the QoE scheduler keeps proactive service.
func TestQoEAwareProactiveForUnhinted(t *testing.T) {
	cfg := Defaults()
	s := sim.New(5)
	core := &collector{s: s}
	r := New(s, cfg, core)
	ue := r.AttachUE(1, SchedQoEAware)
	var alloc packet.Alloc
	// One small packet: a proactive grant should carry it without the
	// BSR round trip.
	p := alloc.New(packet.KindAudio, 1, 130, 0)
	s.At(0, func() { ue.Handle(p) })
	s.RunUntil(time.Second)
	if len(core.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(core.pkts))
	}
	d := core.at[0] - p.SentAt
	if d > cfg.SchedDelay {
		t.Fatalf("solo packet waited %v — rode a BSR grant, not a proactive one (SchedDelay %v)", d, cfg.SchedDelay)
	}
	if units.ByteCount(p.Size) != core.pkts[0].Size {
		t.Fatalf("size mutated: %v -> %v", p.Size, core.pkts[0].Size)
	}
}

// The QoE-aware order is rebuilt every UL slot in a slice the cell keeps:
// the stable tier sort of the rotation, without an allocation.
func TestQoEOrderReusesSlice(t *testing.T) {
	s := sim.New(1)
	r := New(s, Defaults(), nil)
	hints := []AppHintClass{HintThroughput, HintNone, HintLatency, HintConversational, HintLatency, HintThroughput}
	for i, h := range hints {
		r.AttachUE(uint32(i+1), SchedQoEAware).Hint = h
	}
	r.rrStart = 2
	var ids []uint32
	for _, u := range r.qoeOrder() {
		ids = append(ids, u.ID)
	}
	// Rotation 3 4 5 6 1 2, then tiers latency, conversational, none,
	// throughput, each in rotation order.
	if got, want := fmt.Sprint(ids), "[3 5 4 2 6 1]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { r.qoeOrder() }); n != 0 {
		t.Fatalf("qoeOrder allocates %v times per slot", n)
	}
}
