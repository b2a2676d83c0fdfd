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
		n += u.grants.n + u.bsrGrants.n
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
func windowMedian[T int | time.Duration](xs []T, from int) T {
	w := append([]T(nil), xs[from:from+backlogWindow]...)
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

// Nor may it cost time: a slot serves one grant, files sixteen and steps
// past the rest, so its median wall time at a twenty-fold backlog stays
// within 2× of the early slots' (a slot that walks its backlog reads
// several times slower here).
func TestULSlotTimeIndependentOfGrantBacklog(t *testing.T) {
	r, step := saturatedCell()
	took := make([]time.Duration, saturatedSlots)
	backlog := make([]int, saturatedSlots)
	for i := range took {
		t0 := time.Now()
		step(i)
		took[i] = time.Since(t0)
		backlog[i] = grantBacklog(r)
	}
	checkBacklogGrew(t, r, backlog)
	early, late := windowMedian(took, backlogEarly), windowMedian(took, backlogLate)
	t.Logf("slot wall: %v at backlog %d, %v at backlog %d", early, backlog[backlogEarly], late, backlog[backlogLate])
	if late > 2*early {
		t.Fatalf("slot time grew with the grant backlog: %v at %d pending grants, %v at %d",
			early, backlog[backlogEarly], late, backlog[backlogLate])
	}
}
