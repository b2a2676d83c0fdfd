package main

import (
	"sort"
	"strings"
	"time"

	"athena/internal/obs"
)

// spanLayer maps a span name to its layer: the module prefix before the
// first dot ("scenario.RunTopology" → scenario). The workload root and
// anything unprefixed belong to the harness.
func spanLayer(name string) string {
	if strings.HasPrefix(name, "workload:") {
		return "bench"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi]. Children of one span overlap when they ran on different
// goroutines; the union keeps a parent's self time from going negative.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		if iv[0] < lo {
			iv[0] = lo
		}
		if iv[1] > hi {
			iv[1] = hi
		}
		if iv[1] > iv[0] {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end time.Duration
	end = lo
	for _, iv := range clipped {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// nameStat is one row of the traced run's span table.
type nameStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds the spans under root into per-name totals, where a
// span's self time is its duration minus the part of that interval its
// child spans cover. Spans the program opened on the global timeline
// without a parent (correlate, exp:<id>) are not under root and are
// left out, so every nanosecond of the root is counted once.
func selfTimes(spans []obs.SpanRecord, root obs.SpanID) []nameStat {
	children := make(map[obs.SpanID][][2]time.Duration)
	parent := make(map[obs.SpanID]obs.SpanID, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	under := func(id obs.SpanID) bool {
		for i := 0; i <= len(spans); i++ { // bounded walk guards cycles
			if id == root {
				return true
			}
			p, ok := parent[id]
			if !ok || p == 0 {
				return false
			}
			id = p
		}
		return false
	}
	byName := make(map[string]*nameStat)
	for _, s := range spans {
		if !under(s.ID) {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &nameStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]nameStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// layerSelf sums the name rows by layer.
func layerSelf(rows []nameStat) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, r := range rows {
		out[spanLayer(r.Name)] += r.Self
	}
	return out
}

// spanTotals sums span durations by name over every recorded span,
// parented or not: how the program's own root spans (correlate.*) are
// read.
func spanTotals(spans []obs.SpanRecord) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// spanUS lists the durations, in microseconds, of the spans of one name.
func spanUS(spans []obs.SpanRecord, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, us(s.End-s.Start))
		}
	}
	return out
}
