package scenario

import (
	"testing"
	"time"
)

// BenchmarkTopologyScale measures whole-run throughput (UEs × simulated
// seconds per wall second) across deployment sizes, serial vs sharded —
// the scaling claim behind the multi-cell engine. Sub-benchmarks follow
// ues=N/cells=C/mode; `-bench TopologyScale/ues=100` picks one size.
func BenchmarkTopologyScale(b *testing.B) {
	cases := []struct {
		ues, cells int
	}{
		{10, 2},
		{100, 4},
		{1000, 10},
	}
	const dur = 2 * time.Second
	for _, c := range cases {
		for _, mode := range []string{"serial", "sharded"} {
			name := "ues=" + itoa(c.ues) + "/cells=" + itoa(c.cells) + "/" + mode
			b.Run(name, func(b *testing.B) {
				if c.ues >= 1000 && testing.Short() {
					b.Skip("1000-UE case skipped in -short mode")
				}
				for i := 0; i < b.N; i++ {
					top := NewMultiCellTopology(c.ues, c.cells)
					top.Duration = dur
					top.Serial = mode == "serial"
					tr := RunTopology(top)
					if len(tr.UEs) != c.ues {
						b.Fatalf("got %d UE results", len(tr.UEs))
					}
				}
				uesec := float64(c.ues) * dur.Seconds() * float64(b.N)
				b.ReportMetric(uesec/b.Elapsed().Seconds(), "UE-sec/s")
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkTopologyCorrelate times the correlation stage of a 4-UE
// topology in isolation: the simulation runs once, then each iteration
// re-correlates every UE against the shared mid-path captures — the cost
// RunTopology pays after the event loop drains.
func BenchmarkTopologyCorrelate(b *testing.B) {
	top := NewTopology(4)
	top.Duration = 3 * time.Second
	_, builds := simulate(top)
	bld := builds[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.correlate()
		for _, u := range bld.res.UEs {
			if len(u.Report.Packets) == 0 {
				b.Fatal("empty per-UE report")
			}
		}
	}
}
