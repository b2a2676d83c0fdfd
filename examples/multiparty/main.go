// Multiparty: four VCA participants share one private 5G cell, each with
// its own sender, receiver, congestion controller and flow IDs — the
// cell's schedulers arbitrate their real competing uplink buffers. The
// example prints each participant's per-flow delay attribution, then
// verifies two topology guarantees: the run is deterministic (a second
// run is byte-identical) and per-packet uplink + WAN attribution sums
// exactly to each flow's end-to-end one-way delay.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"athena"
	"athena/internal/core"
	"athena/internal/packet"
)

func buildTopology() athena.Topology {
	top := athena.NewTopology(4)
	top.Duration = 10 * time.Second
	return top
}

// digest renders the determinism-relevant output of a run.
func digest(tr *athena.TopologyResult) string {
	var b strings.Builder
	for _, u := range tr.UEs {
		fmt.Fprintf(&b, "ue%d packets=%d\n", u.ID, len(u.Report.Packets))
		for _, v := range u.Report.Packets {
			fmt.Fprintf(&b, "%d/%d sent=%d core=%d recv=%d tbs=%v\n",
				v.Flow, v.Seq, v.SentAt, v.CoreAt, v.ReceiverAt, v.TBIDs)
		}
	}
	return b.String()
}

func main() {
	tr := athena.RunTopology(buildTopology())

	fmt.Printf("multiparty call: %d participants on one 5G cell, %v simulated\n\n",
		len(tr.UEs), tr.Top.Duration)

	ok := true
	for _, u := range tr.UEs {
		video, audio := u.Sender.SSRCs()
		fmt.Printf("participant %d (video flow %d, audio flow %d): %s\n",
			u.ID, video, audio, u.Report.DelaySummary(packet.KindVideo))
		byFlow := u.Report.AttributeByFlow()
		for _, flow := range []uint32{video, audio} {
			a, found := byFlow[flow]
			if !found {
				continue
			}
			fmt.Printf("  flow %d over %d packets: ", flow, a.Packets)
			for _, c := range core.Causes {
				fmt.Printf("%s=%.1fms ", c, a.TotalMS(c))
			}
			fmt.Println()
		}

		// Invariant: the correlator's split of each delivered packet's
		// delay (uplink + WAN) reassembles its end-to-end OWD, flow by
		// flow.
		sumSplit := map[uint32]time.Duration{}
		sumOWD := map[uint32]time.Duration{}
		for _, v := range u.Report.Packets {
			if !v.SeenCore || !v.SeenRecv {
				continue
			}
			sumSplit[v.Flow] += v.ULDelay + v.WANDelay
			sumOWD[v.Flow] += v.ReceiverAt - v.SentAt
		}
		for flow, owd := range sumOWD {
			if sumSplit[flow] != owd {
				fmt.Printf("  MISMATCH flow %d: attribution sum %v != end-to-end OWD %v\n",
					flow, sumSplit[flow], owd)
				ok = false
			}
		}
	}

	fmt.Print("\ndeterminism: ")
	if digest(athena.RunTopology(buildTopology())) != digest(tr) {
		fmt.Println("FAILED — second run diverged")
		ok = false
	} else {
		fmt.Println("second run byte-identical")
	}

	if !ok {
		os.Exit(1)
	}
	fmt.Println("per-flow attribution sums match end-to-end OWDs for every participant")
}
