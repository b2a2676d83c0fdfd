package ran

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
)

// saturatedSlots is the length of the saturated-cell runs below, and
// backlogEarly/backlogLate the starts of the windows they compare: past
// SchedDelay (the first grants are executing), and at the end of the run.
const (
	saturatedSlots = 300
	backlogEarly   = 10
	backlogWindow  = 40
	backlogLate    = saturatedSlots - backlogWindow
)

// saturatedCell builds an overloaded cell that accumulates deferred
// grants: every UE files a new BSR grant each slot and the slot serves
// one. The load is shaped so every slot does identical work (16 BSR
// grants filed, one capacity-sized TB of exactly five packets, no HARQ).
// step runs the cell through one more slot.
func saturatedCell() (r *RAN, step func(slot int)) {
	const nUE = 16
	cfg := Defaults()
	cfg.BLER = 0
	s := sim.New(1)
	r = New(s, cfg, nil)
	var alloc packet.Alloc
	pktSize := cfg.SlotCapacity() / 5
	for i := 0; i < nUE; i++ {
		u := r.AttachUE(uint32(i+1), SchedBSROnly)
		// More than the cell can drain in the whole run, per UE, so every
		// UE reports fresh backlog every slot.
		for j := 0; j < (saturatedSlots+10)*5; j++ {
			u.Handle(alloc.New(packet.KindVideo, uint32(i+1), pktSize, 0))
		}
	}
	return r, func(slot int) { s.RunUntil(time.Duration(slot+1) * cfg.ULPeriod()) }
}

// grantBacklog counts the grants queued on the cell's UEs: those
// executable next slot plus the filed BSR grants not yet due.
func grantBacklog(r *RAN) int {
	n := 0
	for _, u := range r.ues {
		n += u.grants.Len() + u.bsrGrants.Len()
	}
	return n
}

// checkBacklogGrew fails the test unless the saturated run really built
// up the twenty-fold grant backlog the comparisons below rely on.
func checkBacklogGrew(t *testing.T, r *RAN, backlog []int) {
	t.Helper()
	if tbs := len(r.Telemetry.Records); tbs < saturatedSlots-backlogEarly {
		t.Fatalf("%d TBs in %d slots: the cell is not saturated", tbs, saturatedSlots)
	}
	if backlog[backlogLate] < 20*backlog[backlogEarly] {
		t.Fatalf("grant backlog %d → %d: did not grow enough to tell", backlog[backlogEarly], backlog[backlogLate])
	}
}

// windowMedian is the median of the backlogWindow samples from index from.
func windowMedian(xs []int, from int) int {
	w := append([]int(nil), xs[from:from+backlogWindow]...)
	slices.Sort(w)
	return w[backlogWindow/2]
}

// A standing grant backlog must not cost allocations: a slot allocates
// the grants it files and the TB it builds, however long the backlog is,
// so the median allocation count per slot may not rise while the
// backlog grows twenty-fold.
func TestULSlotAllocsIndependentOfGrantBacklog(t *testing.T) {
	r, step := saturatedCell()
	allocs := make([]int, saturatedSlots)
	backlog := make([]int, saturatedSlots)
	var before, after runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&before)
		step(i)
		runtime.ReadMemStats(&after)
		allocs[i] = int(after.Mallocs - before.Mallocs)
		backlog[i] = grantBacklog(r)
	}
	checkBacklogGrew(t, r, backlog)
	early, late := windowMedian(allocs, backlogEarly), windowMedian(allocs, backlogLate)
	t.Logf("allocs/slot: %d at backlog %d, %d at backlog %d", early, backlog[backlogEarly], late, backlog[backlogLate])
	if late > early {
		t.Fatalf("allocs per slot grew with the grant backlog: %d at %d pending grants, %d at %d",
			early, backlog[backlogEarly], late, backlog[backlogLate])
	}
}

// grantReads sums the grants the cell's slots have read from its UEs'
// grant queues.
func grantReads(r *RAN) int {
	n := 0
	for _, u := range r.ues {
		n += u.grants.reads + u.bsrGrants.reads
	}
	return n
}

// Nor may it cost work: a slot serves one grant, files sixteen and steps
// past the rest, so the grants it reads from the queues — looked at or
// served — may not rise while the backlog grows twenty-fold (a slot that
// walks its backlog reads twenty times as many late as early). The count
// is the queues' own, so it holds on any machine; the slot's wall time
// is BenchmarkULSlotAtGrantBacklog.
func TestULSlotTimeIndependentOfGrantBacklog(t *testing.T) {
	r, step := saturatedCell()
	reads := make([]int, saturatedSlots)
	backlog := make([]int, saturatedSlots)
	for i := range reads {
		before := grantReads(r)
		step(i)
		reads[i] = grantReads(r) - before
		backlog[i] = grantBacklog(r)
	}
	checkBacklogGrew(t, r, backlog)
	early, late := windowMedian(reads, backlogEarly), windowMedian(reads, backlogLate)
	t.Logf("grants read per slot: %d at backlog %d, %d at backlog %d", early, backlog[backlogEarly], late, backlog[backlogLate])
	if late > early {
		t.Fatalf("grants read per slot grew with the grant backlog: %d at %d pending grants, %d at %d",
			early, backlog[backlogEarly], late, backlog[backlogLate])
	}
}

// BenchmarkULSlotAtGrantBacklog times the slots of the saturated cell's
// late window, at a twenty-fold grant backlog.
func BenchmarkULSlotAtGrantBacklog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, step := saturatedCell()
		for slot := 0; slot < backlogLate; slot++ {
			step(slot)
		}
		b.StartTimer()
		for slot := backlogLate; slot < saturatedSlots; slot++ {
			step(slot)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*backlogWindow), "ns/slot")
}

// A HARQ retry and a core delivery schedule no closures, build no new
// transport block and no new buffer entry: the only allocation a packet
// costs on its way through a failed attempt, its retry and the core
// hand-off is the PacketIDs slice the TB's telemetry records keep.
func TestRetryAndDeliveryAllocateOnlyRecords(t *testing.T) {
	cfg := Defaults()
	s := sim.New(1)
	delivered := 0
	r := New(s, cfg, packet.HandlerFunc(func(*packet.Packet) { delivered++ }))
	u := r.AttachUE(1, SchedCombined)
	var alloc packet.Alloc
	const runs = 200
	pkts := make([]*packet.Packet, runs+2)
	for i := range pkts {
		pkts[i] = alloc.New(packet.KindVideo, 1, 200, 0)
	}
	next := 0
	retries := 0
	op := func() {
		r.Telemetry.Records = r.Telemetry.Records[:0]
		u.Handle(pkts[next])
		next++
		// Every attempt in the next UL slot fails, so the packet's TB waits
		// for its retry; from then on every attempt succeeds.
		r.Cfg.BLER = 1
		s.RunUntil(s.Now() + cfg.ULPeriod())
		r.Cfg.BLER = 0
		s.RunUntil(s.Now() + cfg.HARQRTT + cfg.SlotDuration + cfg.CoreDelay + cfg.ULPeriod())
		for _, rec := range r.Telemetry.Records {
			if rec.HARQRound == 1 && len(rec.PacketIDs) == 1 {
				retries++
			}
		}
	}
	op()
	allocs := testing.AllocsPerRun(runs, op)
	if delivered != runs+2 || retries != runs+2 {
		t.Fatalf("%d packets delivered and %d carried by a retry, want %d each", delivered, retries, runs+2)
	}
	if allocs != 1 {
		t.Fatalf("%.2f allocations per packet, want 1 (PacketIDs)", allocs)
	}
	// Recycled buffer entries keep no packet alive.
	if len(u.free) == 0 {
		t.Fatal("no buffer entry was recycled")
	}
	for _, e := range u.free {
		if e.pkt != nil {
			t.Fatal("a recycled buffer entry still references its packet")
		}
	}
	// Retired TBs keep no buffer entry alive.
	for _, tb := range r.freeTBs {
		for _, seg := range tb.segs[:cap(tb.segs)] {
			if seg.entry != nil {
				t.Fatal("a recycled TB still references a buffer entry")
			}
		}
	}
}
