// Package phyaware implements the §5.3 mitigation in which "physical-layer
// information is fed to the application layer, enhancing delay-based
// congestion control": a GCC sender whose per-packet arrival times are
// corrected by the RAN-induced delay components (slot-alignment wait, BSR
// scheduling wait, HARQ retransmission) reported through a PHY telemetry
// side channel, before the delay-gradient estimator sees them.
//
// The correction only removes delay the RAN itself explains; genuine
// congestive queueing remains visible, so the controller still backs off
// when the cell is actually overloaded.
package phyaware

import (
	"time"

	"athena/internal/cc"
	"athena/internal/cc/gcc"
	"athena/internal/units"
)

// Adjuster reports the RAN-induced delay of a packet by transport-wide
// sequence number, and whether telemetry for it exists.
type Adjuster interface {
	RANDelay(seq uint16) (time.Duration, bool)
}

// AdjusterFunc adapts a function to Adjuster.
type AdjusterFunc func(seq uint16) (time.Duration, bool)

// RANDelay calls f.
func (f AdjusterFunc) RANDelay(seq uint16) (time.Duration, bool) { return f(seq) }

// New creates a PHY-informed GCC: identical to gcc.New but with the
// telemetry adjuster wired into the estimator.
func New(initial, min, max units.BitRate, adj Adjuster) *gcc.GCC {
	g := gcc.New(initial, min, max)
	if adj != nil {
		g.DelayAdjust = adj.RANDelay
	}
	return g
}

// Table is a simple Adjuster the simulation (or the Athena correlator's
// live mode) fills in as packets traverse the RAN. It holds one slot per
// sequence number, in pages of 256 allocated when a page is first set:
// the simulation sets every media packet's entry, and a map paid for
// hashing and rehashing on each. A table never set allocates nothing.
type Table struct {
	pages *[256]*tablePage
}

type tablePage struct {
	d   [256]time.Duration
	set [256]bool
}

// NewTable creates an empty adjustment table.
func NewTable() *Table { return &Table{} }

// Set records the RAN-induced delay for seq.
func (t *Table) Set(seq uint16, d time.Duration) {
	if t.pages == nil {
		t.pages = new([256]*tablePage)
	}
	pg := t.pages[seq>>8]
	if pg == nil {
		pg = new(tablePage)
		t.pages[seq>>8] = pg
	}
	pg.d[seq&0xff] = d
	pg.set[seq&0xff] = true
}

// RANDelay implements Adjuster.
func (t *Table) RANDelay(seq uint16) (time.Duration, bool) {
	if t.pages == nil {
		return 0, false
	}
	pg := t.pages[seq>>8]
	if pg == nil {
		return 0, false
	}
	return pg.d[seq&0xff], pg.set[seq&0xff]
}

var _ cc.Controller = (*gcc.GCC)(nil)
