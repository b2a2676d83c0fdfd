package session

import (
	"sync"

	"athena/internal/core"
	"athena/internal/obs"
)

// causeMetricNames are the metric-name components of each cause, used
// for the fleet distribution histograms ("serve.rollup.cause.<name>_ns").
// The histograms are observed per emitted view, so they live in an array
// indexed by core's dense cause indices rather than a map.
var causeMetricNames = [core.NumCauses]string{
	core.IdxQueueSlot: "queue_slot",
	core.IdxBSR:       "bsr",
	core.IdxHARQ:      "harq",
	core.IdxWAN:       "wan",
	core.IdxSFU:       "sfu",
}

// unlabeledBin is the dimension label for sessions created without a
// cell or workload tag, so fleet totals never silently lose packets.
const unlabeledBin = "unlabeled"

// Rollup is the fleet aggregate behind /v1/overview: one
// core.Attribution per cell and per workload family, each beside a
// histogram of its packets' attributed delay, plus one fleet histogram
// per cause. The attributions are service data and always on; the
// histograms ride the obs enable gate like every other metric.
//
// A session folds into the rollup twice over. Each emitted view is
// observed into the histograms (allocation-free, gated); at the end of
// each feed the session merges what it emitted into its two bins, once,
// under the rollup mutex. The fleet totals are not stored: every session
// is bound to exactly one cell bin, so Snapshot sums those, and a
// snapshot's totals and bins agree by construction.
type Rollup struct {
	// causeHist observes each attributed packet's per-cause delay (ns);
	// registered once under "serve.rollup.cause.*" (the obs registry
	// dedupes by name, so rollups across registries share instances,
	// matching the package-level lifecycle metrics).
	causeHist [core.NumCauses]*obs.Histogram

	mu       sync.Mutex
	cells    map[string]*rollupBin
	families map[string]*rollupBin
}

// rollupBin is one dimension value's aggregate (a cell, or a workload
// family): its attribution, guarded by Rollup.mu, and a histogram of each
// packet's total attributed delay.
type rollupBin struct {
	attr      core.Attribution
	delayHist *obs.Histogram
}

// NewRollup returns an empty rollup with its fleet histograms registered.
func NewRollup() *Rollup {
	r := &Rollup{
		cells:    make(map[string]*rollupBin),
		families: make(map[string]*rollupBin),
	}
	for i := range r.causeHist {
		r.causeHist[i] = obs.NewHistogram("serve.rollup.cause." + causeMetricNames[i] + "_ns")
	}
	return r
}

// bin returns (creating on first use) the aggregate for one dimension
// value. Called only at session creation, never on the fold path.
func (r *Rollup) bin(dim string, m map[string]*rollupBin, label string) *rollupBin {
	if label == "" {
		label = unlabeledBin
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := m[label]
	if !ok {
		b = &rollupBin{delayHist: obs.NewHistogram("serve.rollup." + dim + "." + label + ".delay_ns")}
		m[label] = b
	}
	return b
}

// rollupFold is a session's pre-resolved view into the rollup: the
// rollup plus this session's cell and family bins. The zero value (nil
// rollup) folds nothing, so sessions work without a rollup.
type rollupFold struct {
	r            *Rollup
	cell, family *rollupBin
}

// Bind resolves the fold state for one session's dimension labels.
func (r *Rollup) Bind(cell, family string) rollupFold {
	if r == nil {
		return rollupFold{}
	}
	return rollupFold{
		r:      r,
		cell:   r.bin("cell", r.cells, cell),
		family: r.bin("family", r.families, family),
	}
}

// observe records one attributed view's components, as derived by
// PacketView.Components, in the delay histograms. A packet not seen at
// the receiver has no downstream components — unobserved, not zero — so
// only its uplink causes reach the per-cause distributions.
func (f rollupFold) observe(c core.Components, seenRecv bool) {
	if f.r == nil || !obs.Enabled() {
		return
	}
	observed := c[:core.IdxWAN]
	if seenRecv {
		observed = c[:]
	}
	var total int64
	for i, ns := range observed {
		f.r.causeHist[i].Observe(ns)
		total += ns
	}
	f.cell.delayHist.Observe(total)
	f.family.delayHist.Observe(total)
}

// fold merges one feed's attribution into the session's two bins.
func (f rollupFold) fold(a core.Attribution) {
	if f.r == nil || a.Packets == 0 {
		return
	}
	f.r.mu.Lock()
	f.cell.attr.Merge(a)
	f.family.attr.Merge(a)
	f.r.mu.Unlock()
}

// CauseStats is one cause's fleet aggregate in an Overview: the exact
// integer total, its millisecond rendering, and the per-packet delay
// distribution quantiles (bucket upper bounds — see obs.HistSnapshot).
type CauseStats struct {
	TotalNS int64   `json:"total_ns"`
	TotalMS float64 `json:"total_ms"`
	Count   int64   `json:"count,omitempty"`
	P50NS   int64   `json:"p50_ns,omitempty"`
	P90NS   int64   `json:"p90_ns,omitempty"`
	P99NS   int64   `json:"p99_ns,omitempty"`
}

// BinStats is one dimension value's aggregate in an Overview.
type BinStats struct {
	Packets int64                  `json:"packets"`
	TotalNS map[core.Cause]int64   `json:"total_ns,omitempty"`
	TotalMS map[core.Cause]float64 `json:"total_ms,omitempty"`
	P50NS   int64                  `json:"delay_p50_ns,omitempty"`
	P90NS   int64                  `json:"delay_p90_ns,omitempty"`
	P99NS   int64                  `json:"delay_p99_ns,omitempty"`
}

// Overview is the fleet rollup served at GET /v1/overview: totals that
// exactly equal the sum of every session's integer attribution totals
// (live and already-closed alike), broken down by cause, cell, and
// workload family, plus event-stream accounting.
type Overview struct {
	Sessions      int     `json:"sessions"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Packets      int64 `json:"packets"`
	RetxAffected int64 `json:"retx_affected"`
	BSRServed    int64 `json:"bsr_served"`

	TotalNS map[core.Cause]int64      `json:"total_ns,omitempty"`
	TotalMS map[core.Cause]float64    `json:"total_ms,omitempty"`
	Causes  map[core.Cause]CauseStats `json:"causes,omitempty"`

	Cells    map[string]BinStats `json:"cells,omitempty"`
	Families map[string]BinStats `json:"families,omitempty"`

	Events *obs.EventLogStats `json:"events,omitempty"`
}

// Snapshot renders the rollup. The totals are the sum of the cell bins,
// read in the same critical section as the bins, so they agree exactly;
// quantiles come from the obs histograms and are zero when collection is
// disabled.
func (r *Rollup) Snapshot() Overview {
	r.mu.Lock()
	var total core.Attribution
	for _, b := range r.cells {
		total.Merge(b.attr)
	}
	o := Overview{
		Packets:      int64(total.Packets),
		RetxAffected: int64(total.RetxAffected),
		BSRServed:    int64(total.BSRServed),
		Cells:        binStats(r.cells),
		Families:     binStats(r.families),
	}
	r.mu.Unlock()
	o.TotalNS, o.TotalMS = causeTotals(total)
	if total.Packets > 0 {
		o.Causes = make(map[core.Cause]CauseStats, core.NumCauses)
		for i, c := range core.Causes {
			o.Causes[c] = CauseStats{
				TotalNS: o.TotalNS[c],
				TotalMS: o.TotalMS[c],
				Count:   r.causeHist[i].Count(),
				P50NS:   r.causeHist[i].Quantile(0.50),
				P90NS:   r.causeHist[i].Quantile(0.90),
				P99NS:   r.causeHist[i].Quantile(0.99),
			}
		}
	}
	return o
}

// binStats renders one dimension's bins. The caller holds Rollup.mu.
func binStats(bins map[string]*rollupBin) map[string]BinStats {
	if len(bins) == 0 {
		return nil
	}
	out := make(map[string]BinStats, len(bins))
	for label, b := range bins {
		bs := BinStats{
			Packets: int64(b.attr.Packets),
			P50NS:   b.delayHist.Quantile(0.50),
			P90NS:   b.delayHist.Quantile(0.90),
			P99NS:   b.delayHist.Quantile(0.99),
		}
		bs.TotalNS, bs.TotalMS = causeTotals(b.attr)
		out[label] = bs
	}
	return out
}

// causeTotals renders an attribution's per-cause totals as the JSON
// total_ns / total_ms maps: exact integer nanoseconds, and milliseconds
// derived from them. Both are nil for an attribution with no packets.
func causeTotals(a core.Attribution) (map[core.Cause]int64, map[core.Cause]float64) {
	if a.Packets == 0 {
		return nil, nil
	}
	ns := make(map[core.Cause]int64, core.NumCauses)
	ms := make(map[core.Cause]float64, core.NumCauses)
	for i, c := range core.Causes {
		ns[c] = a.TotalNS[i]
		ms[c] = a.TotalMS(c)
	}
	return ns, ms
}
