package ran

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"athena/internal/packet"
	"athena/internal/sim"
)

// An overloaded cell accumulates deferred grants: every UE files a new
// BSR grant each slot and the slot serves one. The slot handler must
// re-filter that standing backlog in place — its allocations are those of
// the grants and the TB it newly creates, however long the backlog is.
//
// The load is shaped so every slot does identical work (16 BSR grants
// filed, one capacity-sized TB of exactly five packets, no HARQ), so the
// median allocation count per slot may not rise while the backlog grows
// twenty-fold.
func TestULSlotAllocsIndependentOfGrantBacklog(t *testing.T) {
	const (
		nUE       = 16
		slots     = 300
		earlyFrom = 10 // past SchedDelay: the first grants are executing
		window    = 40
		lateFrom  = slots - window
	)
	cfg := Defaults()
	cfg.BLER = 0
	s := sim.New(1)
	r := New(s, cfg, nil)
	var alloc packet.Alloc
	pktSize := cfg.SlotCapacity() / 5
	for i := 0; i < nUE; i++ {
		u := r.AttachUE(uint32(i+1), SchedBSROnly)
		// More than the cell can drain in the whole run, per UE, so every
		// UE reports fresh backlog every slot.
		for j := 0; j < (slots+10)*5; j++ {
			u.Handle(alloc.New(packet.KindVideo, uint32(i+1), pktSize, 0))
		}
	}

	allocs := make([]int, slots)
	backlog := make([]int, slots)
	var before, after runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&before)
		s.RunUntil(time.Duration(i+1) * cfg.ULPeriod())
		runtime.ReadMemStats(&after)
		allocs[i] = int(after.Mallocs - before.Mallocs)
		backlog[i] = len(r.pendingGrants)
	}
	if tbs := len(r.Telemetry.Records); tbs < slots-earlyFrom {
		t.Fatalf("%d TBs in %d slots: the cell is not saturated", tbs, slots)
	}
	if backlog[lateFrom] < 20*backlog[earlyFrom] {
		t.Fatalf("grant backlog %d → %d: did not grow enough to tell", backlog[earlyFrom], backlog[lateFrom])
	}
	median := func(from int) int {
		w := append([]int(nil), allocs[from:from+window]...)
		sort.Ints(w)
		return w[window/2]
	}
	early, late := median(earlyFrom), median(lateFrom)
	t.Logf("allocs/slot: %d at backlog %d, %d at backlog %d", early, backlog[earlyFrom], late, backlog[lateFrom])
	if late > early {
		t.Fatalf("allocs per slot grew with the grant backlog: %d at %d pending grants, %d at %d",
			early, backlog[earlyFrom], late, backlog[lateFrom])
	}
}
