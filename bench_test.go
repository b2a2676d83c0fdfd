package athena

// One benchmark per registered evaluation artifact: BenchmarkRegistry/F3
// through /S9 regenerate the figure at Seed 1, Scale 1, print its series
// (once) and report every scalar it carries as a bench metric, so
// `go test -bench Registry` output carries the reproduction numbers.
//
// Absolute values come from the simulated substrate; the reproduction
// targets are the paper's *shapes*: who wins, step sizes, and direction
// of effects. EXPERIMENTS.md records paper-vs-measured per artifact.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"athena/internal/experiment"
)

func BenchmarkRegistry(b *testing.B) {
	// testing.B rejects units containing whitespace.
	unit := strings.NewReplacer(" ", "_", "(", "", ")", "")
	for _, e := range experiment.All() {
		b.Run(e.ID, func(b *testing.B) {
			var fig *FigureData
			for i := 0; i < b.N; i++ {
				fig = experiment.Generate(e.Plan(Options{Seed: 1, Scale: 1}))
			}
			fmt.Println(fig)
			names := make([]string, 0, len(fig.Scalars))
			for name := range fig.Scalars {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				b.ReportMetric(fig.Scalars[name], unit.Replace(name))
			}
		})
	}
}
