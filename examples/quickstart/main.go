// Quickstart: run a 20-second Zoom-like call over the simulated private
// 5G cell, then print what Athena's cross-layer correlation sees.
package main

import (
	"fmt"
	"time"

	"athena"
	"athena/internal/packet"
)

func main() {
	cfg := athena.DefaultConfig()
	cfg.Duration = 20 * time.Second

	res := athena.Run(cfg)
	rep := res.Report

	fmt.Println("Athena quickstart — one call, four capture points, one PHY sniffer")
	fmt.Printf("correlated %d packets into %d frames/samples\n\n", len(rep.Packets), len(rep.Frames()))

	fmt.Printf("video uplink delay: %s\n", rep.DelaySummary(packet.KindVideo))
	fmt.Printf("audio uplink delay: %s\n\n", rep.DelaySummary(packet.KindAudio))

	fmt.Print(rep.Attribute())

	fmt.Printf("\nreceiver QoE: %d frames displayed, %d stalls, %d SSIM samples\n",
		res.Receiver.Renderer.DisplayTimes.Len(),
		res.Receiver.Renderer.Stalls,
		len(res.Receiver.Renderer.SSIMs()))
}
