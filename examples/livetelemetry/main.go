// livetelemetry demonstrates the streaming face of Athena (§5.1's
// "continuous, fine-grained measurement"): capture records and PHY
// telemetry are fed into a LiveCorrelator as they happen, and resolved
// per-packet root-cause attributions emerge with bounded latency — the
// feed a PHY-aware congestion controller or a RIC xApp would subscribe to.
// It exits nonzero if the feed is rejected or a packet is never emitted.
package main

import (
	"fmt"
	"log"
	"time"

	"athena"
	"athena/internal/core"
	"athena/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	// Run a short call to obtain realistic traces, then replay its tapped
	// session stream into the live correlator as a tap would deliver it.
	cfg := athena.DefaultConfig()
	cfg.Duration = 10 * time.Second
	ss := athena.Run(cfg).SessionStreams()[0]

	var emitted, bsrWaits, harqHits int
	lc := core.NewLive(ss.Input, func(v core.PacketView) {
		emitted++
		if v.BSRWait > 0 {
			bsrWaits++
		}
		if v.HARQDelay > 0 {
			harqHits++
		}
		// Print a live line for the first few resolved packets.
		if emitted <= 8 {
			fmt.Printf("live: %-5s seq=%-4d ul=%6.2fms queue=%5.2fms bsr=%5.2fms harq=%5.2fms tbs=%v\n",
				v.Kind, v.Seq,
				ms(v.ULDelay), ms(v.QueueWait), ms(v.BSRWait), ms(v.HARQDelay), v.TBIDs)
		}
	})
	if err := ss.Replay(lc, 50*time.Millisecond); err != nil {
		log.Fatalf("livetelemetry: feed rejected: %v", err)
	}
	if n := lc.Pending(); n != 0 {
		log.Fatalf("livetelemetry: %d packets still pending after the replay drained", n)
	}

	fmt.Printf("\nstreamed %d packets, %d TB attempts\n", len(ss.Input.Sender), len(ss.Input.TBs))
	fmt.Printf("resolved live: %d packets (%d waited on a BSR grant, %d HARQ-inflated)\n",
		emitted, bsrWaits, harqHits)
	fmt.Printf("grant mix observed: %s\n", grantMix(ss.Input.TBs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func grantMix(tbs []telemetry.TBRecord) string {
	counts := map[telemetry.GrantKind]int{}
	for _, r := range tbs {
		counts[r.Grant]++
	}
	return fmt.Sprintf("proactive=%d requested=%d", counts[telemetry.GrantProactive], counts[telemetry.GrantRequested])
}
