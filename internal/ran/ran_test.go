package ran

import (
	"slices"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/rtp"
	"athena/internal/sim"
	"athena/internal/telemetry"
	"athena/internal/units"
)

// collector gathers packets delivered to the core with arrival times.
type collector struct {
	s    *sim.Simulator
	pkts []*packet.Packet
	at   []time.Duration
}

func (c *collector) Handle(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.s.Now())
}

// carriedBy lists the TBs whose successful attempt carried packet id,
// from the cells' telemetry: the simulator's one record of that truth.
func carriedBy(id uint64, cells ...*RAN) []uint64 {
	var tbs []uint64
	for _, r := range cells {
		for _, rec := range r.Telemetry.Records {
			if !rec.Failed && slices.Contains(rec.PacketIDs, id) {
				tbs = append(tbs, rec.TBID)
			}
		}
	}
	return tbs
}

func newCell(t *testing.T, cfg Config, sched SchedulerKind) (*sim.Simulator, *RAN, *UE, *collector) {
	t.Helper()
	s := sim.New(1)
	core := &collector{s: s}
	r := New(s, cfg, core)
	ue := r.AttachUE(1, sched)
	return s, r, ue, core
}

func TestConfigDerived(t *testing.T) {
	cfg := Defaults()
	if cfg.ULPeriod() != 2500*time.Microsecond {
		t.Fatalf("ULPeriod = %v, want 2.5ms", cfg.ULPeriod())
	}
	// 20 Mbps × 2.5 ms = 50 kbit = 6250 B.
	if cfg.SlotCapacity() != 6250 {
		t.Fatalf("SlotCapacity = %v, want 6250", cfg.SlotCapacity())
	}
	if cfg.FrameStructure() == "" {
		t.Fatal("FrameStructure empty")
	}
}

func TestSchedulerKindString(t *testing.T) {
	for _, k := range []SchedulerKind{SchedCombined, SchedBSROnly, SchedProactiveOnly, SchedAppAware, SchedOracle} {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if SchedulerKind(99).String() != "?" {
		t.Fatal("unknown kind")
	}
}

// A single small packet under combined scheduling rides the next proactive
// grant: delay = wait-for-UL-slot + slot + core delay, well under 5 ms.
func TestSinglePacketProactiveDelay(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	s.At(3*time.Millisecond, func() {
		ue.Handle(alloc.New(packet.KindAudio, 1, 200, s.Now()))
	})
	s.RunUntil(100 * time.Millisecond)
	if len(core.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(core.pkts))
	}
	delay := core.at[0] - 3*time.Millisecond
	// Next UL slot after 3 ms is at 4.5 ms; +0.5 slot +1 core = 5 - 3 = 2ms...
	if delay <= 0 || delay > 5*time.Millisecond {
		t.Fatalf("proactive delay = %v", delay)
	}
}

// BSR-only scheduling makes even a lone packet wait ~SchedDelay.
func TestBSROnlyDelayIsSchedDelay(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedBSROnly)
	var alloc packet.Alloc
	s.At(3*time.Millisecond, func() {
		ue.Handle(alloc.New(packet.KindAudio, 1, 200, s.Now()))
	})
	s.RunUntil(100 * time.Millisecond)
	if len(core.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(core.pkts))
	}
	delay := core.at[0] - 3*time.Millisecond
	if delay < cfg.SchedDelay || delay > cfg.SchedDelay+2*cfg.ULPeriod()+2*time.Millisecond {
		t.Fatalf("BSR-only delay = %v, want ~%v", delay, cfg.SchedDelay)
	}
	if core.pkts[0].GroundTruth.BSRWait <= 0 {
		t.Fatal("BSRWait ground truth not recorded")
	}
}

// A multi-packet burst (a video frame) under combined scheduling spreads
// across successive UL slots in 2.5 ms increments until the requested
// grant drains the rest — the Fig 5 / Fig 9a mechanism.
func TestFrameBurstDelaySpreadIncrements(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	const n = 6
	s.At(3*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
		}
	})
	s.RunUntil(200 * time.Millisecond)
	if len(core.pkts) != n {
		t.Fatalf("delivered %d packets, want %d", len(core.pkts), n)
	}
	first, last := core.at[0], core.at[0]
	for _, a := range core.at {
		if a < first {
			first = a
		}
		if a > last {
			last = a
		}
	}
	spread := last - first
	if spread <= 0 {
		t.Fatal("burst should spread across slots")
	}
	// Spread is a multiple of the UL period.
	if spread%cfg.ULPeriod() != 0 {
		t.Fatalf("spread %v not a multiple of %v", spread, cfg.ULPeriod())
	}
	// And bounded by roughly the BSR scheduling delay plus slack.
	if spread > cfg.SchedDelay+3*cfg.ULPeriod() {
		t.Fatalf("spread %v too large", spread)
	}
}

// Over-granting: the BSR-requested grant is sized to the buffer at BSR
// time, but proactive TBs drain packets during the 10 ms scheduling delay,
// so requested TBs arrive oversized (some padding).
func TestOverGranting(t *testing.T) {
	cfg := Defaults()
	s, r, ue, _ := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	s.Every(3*time.Millisecond, 33*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
		}
	})
	s.RunUntil(2 * time.Second)
	var requested []telemetry.TBRecord
	for _, rec := range r.Telemetry.Records {
		if rec.Grant == telemetry.GrantRequested {
			requested = append(requested, rec)
		}
	}
	if len(requested) == 0 {
		t.Fatal("no requested TBs")
	}
	w := telemetry.WasteOf(requested)
	if w.Efficiency() >= 0.999 {
		t.Fatalf("requested grants fully used (eff=%.3f); over-granting should waste some", w.Efficiency())
	}
}

// HARQ: with a deterministic failure-free channel no TB repeats; with
// BLER > 0 retransmissions appear and inflate delay in HARQRTT multiples.
func TestHARQRetransmissionInflatesDelay(t *testing.T) {
	cfg := Defaults()
	cfg.BLER = 0.5 // frequent failures
	s, r, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	sent := map[uint64]time.Duration{}
	s.Every(3*time.Millisecond, 20*time.Millisecond, func() {
		p := alloc.New(packet.KindAudio, 1, 200, s.Now())
		sent[p.ID] = s.Now()
		ue.Handle(p)
	})
	s.RunUntil(3 * time.Second)

	if len(core.pkts) == 0 {
		t.Fatal("nothing delivered")
	}
	sawRetx := false
	for _, rec := range r.Telemetry.Records {
		if rec.IsRetx() {
			sawRetx = true
			break
		}
	}
	if !sawRetx {
		t.Fatal("no retransmissions recorded at BLER=0.5")
	}
	// Every packet's HARQ inflation is a multiple of HARQRTT.
	inflated := 0
	for _, p := range core.pkts {
		h := p.GroundTruth.HARQDelay
		if h < 0 {
			t.Fatalf("negative HARQ delay %v", h)
		}
		if h > 0 {
			inflated++
			if h%cfg.HARQRTT != 0 {
				t.Fatalf("HARQ delay %v not a multiple of %v", h, cfg.HARQRTT)
			}
		}
	}
	if inflated == 0 {
		t.Fatal("no packet saw HARQ inflation at BLER=0.5")
	}
}

func TestZeroBLERNoRetx(t *testing.T) {
	cfg := Defaults()
	s, r, ue, _ := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	s.Every(0, 10*time.Millisecond, func() {
		ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
	})
	s.RunUntil(time.Second)
	for _, rec := range r.Telemetry.Records {
		if rec.IsRetx() || rec.Failed {
			t.Fatal("retx/failure with BLER=0")
		}
	}
}

func TestHARQExhaustionDropsPacket(t *testing.T) {
	cfg := Defaults()
	cfg.BLER = 1.0 // nothing ever succeeds
	cfg.MaxHARQ = 2
	s, r, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	p := alloc.New(packet.KindVideo, 1, 1200, 0)
	s.At(0, func() { ue.Handle(p) })
	s.RunUntil(time.Second)
	if len(core.pkts) != 0 {
		t.Fatal("packet delivered through BLER=1 channel")
	}
	if !p.GroundTruth.Dropped {
		t.Fatal("drop not recorded in ground truth")
	}
	if r.Drops == 0 {
		t.Fatal("RAN drop counter not incremented")
	}
}

// Byte conservation: total used bytes across initial TB transmissions
// equals the bytes enqueued (no loss, no duplication) on a clean channel.
func TestByteConservation(t *testing.T) {
	cfg := Defaults()
	s, r, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	var sentBytes units.ByteCount
	s.Every(0, 7*time.Millisecond, func() {
		if s.Now() > 900*time.Millisecond {
			return
		}
		sz := units.ByteCount(300 + (s.Now()/time.Millisecond)%900)
		sentBytes += sz
		ue.Handle(alloc.New(packet.KindVideo, 1, sz, s.Now()))
	})
	s.RunUntil(2 * time.Second)
	var used units.ByteCount
	for _, rec := range r.Telemetry.Records {
		if rec.HARQRound == 0 {
			used += rec.UsedBytes
		}
	}
	if used != sentBytes {
		t.Fatalf("used %d bytes != sent %d", used, sentBytes)
	}
	var recv units.ByteCount
	for _, p := range core.pkts {
		recv += p.Size
	}
	if recv != sentBytes {
		t.Fatalf("received %d bytes != sent %d", recv, sentBytes)
	}
}

// Packets delivered to the core preserve per-packet integrity: every
// enqueued packet arrives exactly once on a clean channel.
func TestExactlyOnceDelivery(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	want := map[uint64]bool{}
	s.Every(0, 3*time.Millisecond, func() {
		if s.Now() > 500*time.Millisecond {
			return
		}
		p := alloc.New(packet.KindVideo, 1, 900, s.Now())
		want[p.ID] = true
		ue.Handle(p)
	})
	s.RunUntil(2 * time.Second)
	got := map[uint64]int{}
	for _, p := range core.pkts {
		got[p.ID]++
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d distinct packets, want %d", len(got), len(want))
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", id, n)
		}
		if !want[id] {
			t.Fatalf("unexpected packet %d", id)
		}
	}
}

// Cross traffic at high load inflates the monitored UE's delay.
func TestCrossTrafficInflatesDelay(t *testing.T) {
	run := func(rate units.BitRate) time.Duration {
		cfg := Defaults()
		s := sim.New(1)
		core := &collector{s: s}
		r := New(s, cfg, core)
		ue := r.AttachUE(1, SchedCombined)
		var alloc packet.Alloc
		NewCrossSource(s, r, &alloc, 6, 100, []CrossPhase{{Start: 0, Rate: rate}})
		s.Every(0, 33*time.Millisecond, func() {
			for i := 0; i < 4; i++ {
				ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
			}
		})
		s.RunUntil(5 * time.Second)
		var worst time.Duration
		for i, p := range core.pkts {
			if p.Kind != packet.KindVideo {
				continue
			}
			d := core.at[i] - p.SentAt
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	idle := run(0)
	loaded := run(18 * units.Mbps)
	if loaded <= idle {
		t.Fatalf("cross traffic should inflate delay: idle=%v loaded=%v", idle, loaded)
	}
	if loaded < 2*idle {
		t.Fatalf("18 Mbps cross traffic should at least double worst-case delay: idle=%v loaded=%v", idle, loaded)
	}
}

// The oracle scheduler delivers a whole frame with minimal spread.
func TestOracleSchedulerMinimalSpread(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedOracle)
	var alloc packet.Alloc
	s.At(3*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			ue.Handle(alloc.New(packet.KindVideo, 1, 1200, s.Now()))
		}
	})
	s.RunUntil(time.Second)
	if len(core.pkts) != 4 {
		t.Fatalf("delivered %d", len(core.pkts))
	}
	spread := core.at[len(core.at)-1] - core.at[0]
	if spread != 0 {
		t.Fatalf("oracle spread = %v, want 0 (single TB)", spread)
	}
}

// The app-aware scheduler (§5.2) roughly halves frame-level delay versus
// the combined default. Frame delay = first-packet enqueue to last-packet
// core arrival.
func TestAppAwareHalvesFrameDelay(t *testing.T) {
	frameDelay := func(sched SchedulerKind) time.Duration {
		cfg := Defaults()
		s := sim.New(1)
		core := &collector{s: s}
		r := New(s, cfg, core)
		ue := r.AttachUE(1, sched)
		var alloc packet.Alloc
		frameOf := map[uint64]int{}
		frame := 0
		s.Every(3*time.Millisecond, 33*time.Millisecond, func() {
			if s.Now() > 1900*time.Millisecond {
				return
			}
			frame++
			for i := 0; i < 4; i++ {
				p := alloc.New(packet.KindVideo, 1, 1200, s.Now())
				rp := &rtp.Packet{PayloadType: rtp.PayloadTypeVideo}
				if i == 0 {
					rp.HasMeta = true
					rp.Meta = rtp.MediaMeta{Streams: 1, FrameRateFPS: 30, FrameSizeBytes: 4800}
				}
				p.Payload = rp
				frameOf[p.ID] = frame
				ue.Handle(p)
			}
		})
		s.RunUntil(4 * time.Second)
		firstSent := map[int]time.Duration{}
		lastRecv := map[int]time.Duration{}
		for i, p := range core.pkts {
			f := frameOf[p.ID]
			if _, ok := firstSent[f]; !ok || p.SentAt < firstSent[f] {
				firstSent[f] = p.SentAt
			}
			if core.at[i] > lastRecv[f] {
				lastRecv[f] = core.at[i]
			}
		}
		var sum time.Duration
		n := 0
		for f, fs := range firstSent {
			if lr, ok := lastRecv[f]; ok && f > 3 { // skip warmup frames
				sum += lr - fs
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no frames measured for %v", sched)
		}
		return sum / time.Duration(n)
	}
	combined := frameDelay(SchedCombined)
	aware := frameDelay(SchedAppAware)
	if aware >= combined*6/10 {
		t.Fatalf("app-aware %v should be well under 60%% of combined %v", aware, combined)
	}
}

func TestDownlinkDelivery(t *testing.T) {
	cfg := Defaults()
	s, r, ue, _ := newCell(t, cfg, SchedCombined)
	var got []time.Duration
	ue.Downlink = packet.HandlerFunc(func(p *packet.Packet) { got = append(got, s.Now()) })
	var alloc packet.Alloc
	s.At(time.Millisecond, func() {
		r.SendDownlink(ue, alloc.New(packet.KindRTCP, 2, 100, s.Now()))
	})
	s.RunUntil(time.Second)
	if len(got) != 1 {
		t.Fatalf("downlink delivered %d", len(got))
	}
	// No grant cycle on the downlink: delay is bounded by the fixed part
	// plus serialization and one slot of alignment (no HARQ at BLER=0).
	lo := time.Millisecond + cfg.DownlinkDelay
	hi := lo + cfg.SlotDuration + time.Millisecond
	if got[0] < lo || got[0] > hi {
		t.Fatalf("downlink at %v, want in [%v, %v]", got[0], lo, hi)
	}
}

func TestDownlinkStableUnderLoad(t *testing.T) {
	// A full-rate downlink media flow stays low-jitter even while the
	// uplink suffers BSR cycles — the paper's takeaway (c).
	cfg := Defaults()
	s := sim.New(1)
	r := New(s, cfg, nil)
	ue := r.AttachUE(1, SchedCombined)
	var at []time.Duration
	var sent []time.Duration
	ue.Downlink = packet.HandlerFunc(func(p *packet.Packet) { at = append(at, s.Now()) })
	var alloc packet.Alloc
	s.Every(0, 33*time.Millisecond, func() {
		if s.Now() > 5*time.Second {
			return
		}
		for i := 0; i < 4; i++ {
			p := alloc.New(packet.KindVideo, 1, 1200, s.Now())
			sent = append(sent, s.Now())
			r.SendDownlink(ue, p)
		}
	})
	s.RunUntil(6 * time.Second)
	if len(at) != len(sent) {
		t.Fatalf("delivered %d/%d", len(at), len(sent))
	}
	var min, max time.Duration
	for i := range at {
		d := at[i] - sent[i]
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Jitter range well under the uplink's BSR cycle.
	if max-min > 5*time.Millisecond {
		t.Fatalf("downlink jitter range %v too large (min %v max %v)", max-min, min, max)
	}
}

func TestProactiveOnlyDrainsSlowly(t *testing.T) {
	cfg := Defaults()
	s, _, ue, core := newCell(t, cfg, SchedProactiveOnly)
	var alloc packet.Alloc
	s.At(0, func() {
		for i := 0; i < 8; i++ {
			ue.Handle(alloc.New(packet.KindVideo, 1, 1200, 0))
		}
	})
	s.RunUntil(time.Second)
	if len(core.pkts) != 8 {
		t.Fatalf("delivered %d", len(core.pkts))
	}
	// 8×1200 B at 1600 B per 2.5 ms = at least 6 UL periods of spread.
	spread := core.at[len(core.at)-1] - core.at[0]
	if spread < 5*cfg.ULPeriod() {
		t.Fatalf("proactive-only spread %v too small", spread)
	}
}

func TestRANString(t *testing.T) {
	s := sim.New(1)
	r := New(s, Defaults(), nil)
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGrantKindString(t *testing.T) {
	for _, k := range []telemetry.GrantKind{telemetry.GrantProactive, telemetry.GrantRequested, telemetry.GrantAppAware, telemetry.GrantOracle} {
		if k.String() == "?" {
			t.Fatal("unnamed grant kind")
		}
	}
}

func TestUEQueueWaitGroundTruth(t *testing.T) {
	cfg := Defaults()
	s, r, ue, core := newCell(t, cfg, SchedCombined)
	var alloc packet.Alloc
	s.At(0, func() { ue.Handle(alloc.New(packet.KindVideo, 1, 1200, 0)) })
	s.RunUntil(100 * time.Millisecond)
	gt := core.pkts[0].GroundTruth
	if gt.UEQueueWait < 0 || gt.UEQueueWait > 3*time.Millisecond {
		t.Fatalf("UEQueueWait = %v", gt.UEQueueWait)
	}
	if len(carriedBy(core.pkts[0].ID, r)) == 0 {
		t.Fatal("no successful TB record carries the packet")
	}
}
