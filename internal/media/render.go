package media

import (
	"sync"
	"time"

	"athena/internal/stats"
)

// ScreenSampleRate is the paper's screen-capture cadence: 70 fps, slightly
// above the monitor refresh rate, so every displayed frame is observed.
const ScreenSampleRate = 70

// ScreenSampleInterval is the sampling period.
const ScreenSampleInterval = time.Second / ScreenSampleRate

// Renderer tracks what is "on screen" at the receiver and derives the
// user-centric QoE metrics of Fig 7: displayed frame rate, frame-level
// jitter, stalls, and SSIM picture quality.
type Renderer struct {
	// displayed frame history
	current     *EncodedFrame
	displayedAt time.Duration

	// Metrics accumulators.
	FrameJitterMS []float64     // per-frame |inter-display - inter-PTS| in ms
	DisplayTimes  *stats.Series // one sample per displayed frame (value = frame seq)
	Stalls        int
	StallTime     time.Duration
	// MouthToEarMS is the capture-to-render delay per displayed frame —
	// the "long mouth-to-ear delay" QoE impairment §2 names as the cost
	// of jitter-buffer expansion.
	MouthToEarMS []float64

	lastPTS     time.Duration
	havePrev    bool
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
	if r.havePrev {
		gap := now - r.lastDisplay
		ptsGap := f.PTS - r.lastPTS
		j := gap - ptsGap
		if j < 0 {
			j = -j
		}
		r.FrameJitterMS = append(r.FrameJitterMS, float64(j)/float64(time.Millisecond))
		if gap > r.StallThreshold {
			r.Stalls++
			r.StallTime += gap - r.StallThreshold
		}
	}
	r.current = f
	r.displayedAt = now
	r.lastDisplay = now
	r.lastPTS = f.PTS
	r.havePrev = true
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
// last Display.
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

// Current reports the frame on screen (nil before first display).
func (r *Renderer) Current() *EncodedFrame { return r.current }

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

// ScreenSampler polls the renderer at 70 fps like the paper's screen
// capture, recording which frame is visible at each tick. Freezes are
// detected exactly as the paper does: a frame on screen for longer than
// its intended packetization time.
type ScreenSampler struct {
	Samples []ScreenSample
}

// ScreenSample is one screen-capture observation.
type ScreenSample struct {
	At       time.Duration
	FrameSeq uint64
	Valid    bool // false before any frame has been displayed
}

// Sample records the currently displayed frame.
func (s *ScreenSampler) Sample(r *Renderer, now time.Duration) {
	smp := ScreenSample{At: now}
	if f := r.Current(); f != nil {
		smp.FrameSeq = f.Seq
		smp.Valid = true
	}
	s.Samples = append(s.Samples, smp)
}

// FreezeReport summarizes on-screen dwell analysis from the samples.
type FreezeReport struct {
	Frames      int           // distinct frames observed
	Freezes     int           // dwells exceeding the threshold
	LongestDwel time.Duration // longest single dwell
}

// Freezes scans the samples for frames that stayed on screen longer than
// threshold.
func (s *ScreenSampler) Freezes(threshold time.Duration) FreezeReport {
	var rep FreezeReport
	var curSeq uint64
	var curStart time.Duration
	started := false
	flush := func(end time.Duration) {
		if !started {
			return
		}
		dwell := end - curStart
		rep.Frames++
		if dwell > threshold {
			rep.Freezes++
		}
		if dwell > rep.LongestDwel {
			rep.LongestDwel = dwell
		}
	}
	for _, smp := range s.Samples {
		if !smp.Valid {
			continue
		}
		if !started || smp.FrameSeq != curSeq {
			flush(smp.At)
			curSeq = smp.FrameSeq
			curStart = smp.At
			started = true
		}
	}
	if len(s.Samples) > 0 {
		flush(s.Samples[len(s.Samples)-1].At)
	}
	return rep
}
