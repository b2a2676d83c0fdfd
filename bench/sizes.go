package main

import (
	"time"

	"athena/internal/scenario"
)

// sizes are the workload parameters. fullSizes is the benchmark;
// quickSizes is the toy-size smoke the tests run so the harness cannot
// rot. Run length scales the repetitions, never these.
type sizes struct {
	sweepScale float64 // experiment.Options.Scale of a timed sweep
	// warmPerCold is how many warm sweeps follow each cold sweep, out of
	// the store it filled. Taking the warm samples at several moments of
	// the run, not in one half-second at its end, keeps a burst of noise
	// on the box from owning their median.
	warmPerCold int

	cellUEs, cellCells, cellHandovers int
	cellDur                           time.Duration

	serveUEs, serveCells int
	serveDur             time.Duration
	slots                int     // sessions concurrently live in the open-loop phase
	rate100, rate10      float64 // open-loop batches/s at the 100 ms and 10 ms tick

	familyUEs   int // UEs of the one-cell per-family traced runs
	overviewLen int // live sessions behind the overview / scrape rows
}

var fullSizes = sizes{
	sweepScale: 0.25, warmPerCold: 40,
	cellUEs: 200, cellCells: 4, cellHandovers: 4, cellDur: 4 * time.Second,
	serveUEs: 32, serveCells: 16, serveDur: 4 * time.Second,
	slots: 64, rate100: 1000, rate10: 2000,
	familyUEs: 8, overviewLen: 100,
}

var quickSizes = sizes{
	sweepScale: 0.02, warmPerCold: 5,
	cellUEs: 8, cellCells: 2, cellHandovers: 2, cellDur: time.Second,
	serveUEs: 2, serveCells: 2, serveDur: time.Second,
	slots: 4, rate100: 200, rate10: 400,
	familyUEs: 2, overviewLen: 4,
}

// warmupScale is the experiment scale of the set-up warm-up sweep.
const warmupScale = 0.02

// multiCell builds the seed-derived multi-cell VCA deployment the cell,
// correlate-offline and serve-* workloads all start from: UEs round-robin
// over cells, the first handovers UEs scripted to hand over to their
// paired cell (2k ↔ 2k+1) halfway through, which keeps handover domains
// at two cells and the run sharded.
func multiCell(seed int64, ues, cells, handovers int, dur time.Duration) scenario.Topology {
	top := scenario.NewMultiCellTopology(ues, cells)
	top.Seed = seed
	top.Duration = dur
	for i := range top.UEs {
		// NewTopology derives UE media seeds from the default seed; re-derive
		// them by the same rule so -seed is the only source of randomness.
		top.UEs[i].Seed = seed + int64(1000*i)
	}
	for i := 0; i < handovers && i < ues; i++ {
		partner := top.UEs[i].Cell ^ 1
		if partner >= cells {
			continue
		}
		top.UEs[i].Handovers = []scenario.Handover{{At: dur / 2, ToCell: partner}}
	}
	return top
}
