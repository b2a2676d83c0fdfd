package media

import (
	"container/heap"
	"time"
)

// JitterBuffer smooths frame-arrival jitter before playout: each completed
// frame is held until sendPTS + playout delay has elapsed on the
// receiver's timeline. The buffer adapts its target delay to the observed
// arrival jitter, trading mouth-to-ear delay against stalls — the second
// of the three VCA options the paper lays out in §2.
type JitterBuffer struct {
	// MinDelay and MaxDelay bound the adaptive playout delay.
	MinDelay, MaxDelay time.Duration

	target    time.Duration
	base      time.Duration // playout timeline anchor: arrival - PTS baseline
	baseValid bool
	jitterEst float64 // smoothed |arrival - expected| in ns
	q         frameHeap
	late      int
	total     int
}

// NewJitterBuffer creates a buffer with the given delay bounds.
func NewJitterBuffer(min, max time.Duration) *JitterBuffer {
	if max < min {
		max = min
	}
	return &JitterBuffer{MinDelay: min, MaxDelay: max, target: min}
}

// queued pairs a frame with its computed release time.
type queued struct {
	frame   *EncodedFrame
	release time.Duration
	idx     int
}

type frameHeap []*queued

func (h frameHeap) Len() int           { return len(h) }
func (h frameHeap) Less(i, j int) bool { return h[i].release < h[j].release }
func (h frameHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *frameHeap) Push(x any)        { q := x.(*queued); q.idx = len(*h); *h = append(*h, q) }
func (h *frameHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return q
}

// Push inserts a frame that completed reassembly at arrival (receiver
// time) and returns the time at which it should be played out.
func (b *JitterBuffer) Push(f *EncodedFrame, arrival time.Duration) time.Duration {
	b.total++
	lateness := b.observe(f, arrival)
	b.adapt(lateness)
	release := b.base + f.PTS + b.target
	if release < arrival {
		// Frame arrived after its slot: play immediately (it rendered
		// late; the renderer scores the stall).
		release = arrival
		b.late++
	}
	heap.Push(&b.q, &queued{frame: f, release: release})
	return release
}

// observe updates the playout baseline and returns how late the frame is
// relative to the smooth timeline (negative = early).
func (b *JitterBuffer) observe(f *EncodedFrame, arrival time.Duration) time.Duration {
	offset := arrival - f.PTS
	if !b.baseValid {
		b.base = offset
		b.baseValid = true
		return 0
	}
	// Track the minimum offset (fastest path) with slow upward creep so
	// the baseline follows genuine path changes.
	if offset < b.base {
		b.base = offset
	} else {
		b.base += (offset - b.base) / 500
	}
	return offset - b.base
}

// adapt updates the target delay toward ~2 standard deviations of observed
// lateness, within bounds.
func (b *JitterBuffer) adapt(lateness time.Duration) {
	l := float64(lateness)
	if l < 0 {
		l = 0
	}
	const alpha = 1.0 / 16
	b.jitterEst += float64((l - b.jitterEst) * alpha)
	want := time.Duration(2 * b.jitterEst)
	if want < b.MinDelay {
		want = b.MinDelay
	}
	if want > b.MaxDelay {
		want = b.MaxDelay
	}
	b.target = want
}

// PopDue removes and returns all frames whose release time is <= now, in
// release order.
func (b *JitterBuffer) PopDue(now time.Duration) []*EncodedFrame {
	var out []*EncodedFrame
	for b.q.Len() > 0 && b.q[0].release <= now {
		q := heap.Pop(&b.q).(*queued)
		out = append(out, q.frame)
	}
	return out
}

// NextRelease reports the earliest pending release time, or ok=false if
// the buffer is empty.
func (b *JitterBuffer) NextRelease() (time.Duration, bool) {
	if b.q.Len() == 0 {
		return 0, false
	}
	return b.q[0].release, true
}

// TargetDelay reports the current adaptive playout delay.
func (b *JitterBuffer) TargetDelay() time.Duration { return b.target }

// Depth reports the number of buffered frames.
func (b *JitterBuffer) Depth() int { return b.q.Len() }

// LateFraction reports the fraction of frames that arrived after their
// playout slot.
func (b *JitterBuffer) LateFraction() float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.late) / float64(b.total)
}
