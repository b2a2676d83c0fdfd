package media

import (
	"sync"
	"time"

	"athena/internal/stats"
)

// Renderer tracks what is "on screen" at the receiver and derives the
// user-centric QoE metrics of Fig 7: displayed frame rate, stalls, and
// SSIM picture quality.
type Renderer struct {
	// DisplayTimes holds one sample per displayed frame: its display time
	// and, as the value, its sequence number. It is what the paper's
	// 70 fps screen capture measures — which frame is on screen when —
	// recorded exactly instead of sampled.
	DisplayTimes *stats.Series
	Stalls       int
	// MouthToEarMS is the capture-to-render delay per displayed frame —
	// the "long mouth-to-ear delay" QoE impairment §2 names as the cost
	// of jitter-buffer expansion.
	MouthToEarMS []float64

	lastDisplay time.Duration

	// SSIMEvery scores picture quality on every n-th frame to bound CPU;
	// 1 scores all frames.
	SSIMEvery int
	ssimSkip  int
	// scored lists the frames Display picked for scoring, in display
	// order; SSIMs scores them once, on its first call.
	scored   []scoredFrame
	ssimOnce sync.Once
	ssims    []float64

	// StallThreshold: gap between consecutive displays that counts as a
	// stall. The paper flags frames on screen "longer than intended";
	// 2.5× the nominal interval at the lowest frame rate (7 fps) is used.
	StallThreshold time.Duration
}

// NewRenderer creates a renderer scoring SSIM on every ssimEvery-th frame.
func NewRenderer(ssimEvery int) *Renderer {
	if ssimEvery < 1 {
		ssimEvery = 1
	}
	return &Renderer{
		DisplayTimes:   stats.NewSeries("display"),
		SSIMEvery:      ssimEvery,
		StallThreshold: 360 * time.Millisecond, // 2.5 × (1s/7)
	}
}

// scoredFrame is what scoring a displayed frame needs later: the source
// frame and the encoder's distortion.
type scoredFrame struct {
	ref   FrameRef
	sigma float64
}

// Display shows frame f at receiver time now.
func (r *Renderer) Display(f *EncodedFrame, now time.Duration) {
	if r.DisplayTimes.Len() > 0 && now-r.lastDisplay > r.StallThreshold {
		r.Stalls++
	}
	r.lastDisplay = now
	r.DisplayTimes.Add(now, float64(f.Seq))
	r.MouthToEarMS = append(r.MouthToEarMS, float64(now-f.PTS)/float64(time.Millisecond))

	r.ssimSkip++
	if r.ssimSkip >= r.SSIMEvery {
		r.ssimSkip = 0
		r.scored = append(r.scored, scoredFrame{f.Source, f.NoiseSigma})
	}
}

// SSIMs returns the picture quality of every SSIMEvery-th displayed
// frame, in display order: the SSIM of its decode against its source
// frame, skipping frames too small to score. The first call renders,
// decodes and scores them; every call, from any goroutine, returns that
// one slice, which callers must copy before modifying. Call it after the
// last Display. Scoring runs once under a sync.Once because a driver
// that joins a run another driver has in flight shares its Result, and
// both may score it at once.
func (r *Renderer) SSIMs() []float64 {
	r.ssimOnce.Do(func() {
		var sc scorer
		for _, f := range r.scored {
			if v, err := sc.score(f.ref, f.sigma); err == nil {
				r.ssims = append(r.ssims, v)
			}
		}
	})
	return r.ssims
}

// FrameRateSeries bins displayed frames into 1-second buckets and returns
// the per-second displayed frame rate.
func (r *Renderer) FrameRateSeries() []stats.Point {
	return r.DisplayTimes.Bin(time.Second, stats.Count)
}

// FrameRates returns the per-second frame-rate samples (the Fig 7c CDF
// input).
func (r *Renderer) FrameRates() []float64 {
	pts := r.FrameRateSeries()
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}
