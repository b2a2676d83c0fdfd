package session

import (
	"sync"
	"sync/atomic"

	"athena/internal/core"
	"athena/internal/obs"
)

// causeMetricNames are the metric-name components of each cause, used
// for the fleet distribution histograms ("serve.rollup.cause.<name>_ns").
// The rollup fold runs per emitted view on the session feed path, so
// cause totals live in arrays of atomics indexed by core's dense cause
// indices rather than maps — no hashing, no allocation.
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

// Rollup folds every session's attribution deltas into fleet-wide
// per-dimension aggregates: integer-nanosecond cause totals (exact under
// any feed interleaving — integer addition is associative, float is
// not), plus per-cause and per-dimension obs.Histograms for delay
// distributions. Totals are plain atomics and always on — they are
// service data, not diagnostics; the distribution histograms ride the
// obs enable gate like every other metric.
//
// The fold path is allocation-free: a session resolves its cell and
// workload-family bins once at creation (rollupFold), so folding one
// view is a handful of atomic adds and gated histogram observes.
type Rollup struct {
	packets atomic.Int64
	retx    atomic.Int64
	bsr     atomic.Int64
	causeNS [core.NumCauses]atomic.Int64

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
// family): packet count, cause totals, and a histogram of each packet's
// total attributed delay.
type rollupBin struct {
	packets   atomic.Int64
	causeNS   [core.NumCauses]atomic.Int64
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
// shared totals plus this session's cell and family bins. The zero value
// (nil rollup) folds nothing, so sessions work without a rollup.
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

// fold adds one attributed view's components, as derived by
// PacketView.Components. A packet not seen at the receiver has no
// downstream components — unobserved, not zero — so only the uplink
// causes reach the totals and the per-cause distributions. The sum of
// what is folded is the packet's whole attributed delay, which feeds the
// dimension distribution histograms.
func (f rollupFold) fold(c core.Components, seenRecv bool) {
	r := f.r
	if r == nil {
		return
	}
	r.packets.Add(1)
	if c[core.IdxHARQ] > 0 {
		r.retx.Add(1)
	}
	if c[core.IdxBSR] > 0 {
		r.bsr.Add(1)
	}
	observed := c[:core.IdxWAN]
	if seenRecv {
		observed = c[:]
	}
	var total int64
	for i, ns := range observed {
		r.causeNS[i].Add(ns)
		r.causeHist[i].Observe(ns)
		total += ns
	}
	for _, b := range [2]*rollupBin{f.cell, f.family} {
		b.packets.Add(1)
		for i, ns := range observed {
			b.causeNS[i].Add(ns)
		}
		b.delayHist.Observe(total)
	}
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

// Snapshot renders the rollup. Totals are exact (atomic loads of the
// folded integers); quantiles come from the obs histograms and are zero
// when collection is disabled.
func (r *Rollup) Snapshot() Overview {
	o := Overview{
		Packets:      r.packets.Load(),
		RetxAffected: r.retx.Load(),
		BSRServed:    r.bsr.Load(),
	}
	if o.Packets > 0 {
		o.TotalNS = make(map[core.Cause]int64, core.NumCauses)
		o.TotalMS = make(map[core.Cause]float64, core.NumCauses)
		o.Causes = make(map[core.Cause]CauseStats, core.NumCauses)
		for i, c := range core.Causes {
			ns := r.causeNS[i].Load()
			o.TotalNS[c] = ns
			o.TotalMS[c] = float64(ns) / 1e6
			o.Causes[c] = CauseStats{
				TotalNS: ns,
				TotalMS: float64(ns) / 1e6,
				Count:   r.causeHist[i].Count(),
				P50NS:   r.causeHist[i].Quantile(0.50),
				P90NS:   r.causeHist[i].Quantile(0.90),
				P99NS:   r.causeHist[i].Quantile(0.99),
			}
		}
	}
	r.mu.Lock()
	cells, families := make([]binRef, 0, len(r.cells)), make([]binRef, 0, len(r.families))
	for label, b := range r.cells {
		cells = append(cells, binRef{label, b})
	}
	for label, b := range r.families {
		families = append(families, binRef{label, b})
	}
	r.mu.Unlock()
	o.Cells = binStats(cells)
	o.Families = binStats(families)
	return o
}

type binRef struct {
	label string
	bin   *rollupBin
}

func binStats(refs []binRef) map[string]BinStats {
	if len(refs) == 0 {
		return nil
	}
	out := make(map[string]BinStats, len(refs))
	for _, ref := range refs {
		b := ref.bin
		bs := BinStats{
			Packets: b.packets.Load(),
			P50NS:   b.delayHist.Quantile(0.50),
			P90NS:   b.delayHist.Quantile(0.90),
			P99NS:   b.delayHist.Quantile(0.99),
		}
		if bs.Packets > 0 {
			bs.TotalNS = make(map[core.Cause]int64, core.NumCauses)
			bs.TotalMS = make(map[core.Cause]float64, core.NumCauses)
			for i, c := range core.Causes {
				ns := b.causeNS[i].Load()
				bs.TotalNS[c] = ns
				bs.TotalMS[c] = float64(ns) / 1e6
			}
		}
		out[ref.label] = bs
	}
	return out
}
