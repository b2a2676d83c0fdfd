// Package gcc implements Google Congestion Control as described in
// Carlucci et al., "Analysis and Design of the Google Congestion Control
// for Web Real-Time Communication" (MMSys 2016) and as deployed in WebRTC:
// packet-group inter-arrival analysis, a trendline filter over the one-way
// delay gradient, an adaptive-threshold overuse detector, and AIMD rate
// control, plus a sender-side loss controller.
//
// GCC is the paper's §4 case study: on a 5G uplink its filtered delay
// gradient fluctuates enough to trip the overuse detector even on an idle
// cell (Fig 10). The estimator exposes a per-packet diagnostic trace so
// that figure can be regenerated exactly.
package gcc

import "time"

// burstDelta is the packet-grouping window: packets sent within 5 ms of a
// group's first packet belong to the same group.
const burstDelta = 5 * time.Millisecond

// group aggregates packets sent in one burst.
type group struct {
	firstSend   time.Duration
	lastSend    time.Duration
	lastArrival time.Duration
}

// interArrival turns per-packet (send, arrival) pairs into per-group
// deltas: sendDelta, arrivalDelta, and their difference (the delay
// variation sample d).
type interArrival struct {
	cur, prev group
	haveCur   bool
	havePrev  bool
}

// deltas is one inter-group measurement.
type deltas struct {
	send    time.Duration
	arrival time.Duration
	d       time.Duration // arrival - send: one-way delay variation
}

// add consumes one packet observation and reports group-complete deltas
// when the packet opens a new group. Packets must be fed in send order
// (transport-wide sequence order), as the WebRTC feedback adapter does.
func (ia *interArrival) add(send, arrival time.Duration) (deltas, bool) {
	if !ia.haveCur {
		ia.cur = group{firstSend: send, lastSend: send, lastArrival: arrival}
		ia.haveCur = true
		return deltas{}, false
	}
	if send-ia.cur.firstSend <= burstDelta {
		// Same burst: extend the current group.
		if send > ia.cur.lastSend {
			ia.cur.lastSend = send
		}
		if arrival > ia.cur.lastArrival {
			ia.cur.lastArrival = arrival
		}
		return deltas{}, false
	}
	// New group begins; if we have a previous complete group, emit deltas
	// between it and the (now complete) current group.
	var out deltas
	ok := false
	if ia.havePrev {
		out = deltas{
			send:    ia.cur.lastSend - ia.prev.lastSend,
			arrival: ia.cur.lastArrival - ia.prev.lastArrival,
		}
		out.d = out.arrival - out.send
		ok = true
	}
	ia.prev = ia.cur
	ia.havePrev = true
	ia.cur = group{firstSend: send, lastSend: send, lastArrival: arrival}
	return out, ok
}
