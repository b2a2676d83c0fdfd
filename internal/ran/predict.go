package ran

import (
	"time"

	"athena/internal/telemetry"
	"athena/internal/units"
)

// §5.2's second realization: "the base stations can use machine learning
// to learn the current transmission patterns, and predict future traffic
// demands to precisely issue grants" — no packet annotations required.
//
// The predictor is a simple online learner of the kind a Real-Time RIC
// xApp could run. Its signal is the UE's Buffer Status Reports: a BSR
// with fresh backlog means a media unit just arrived that no grant was
// waiting for. From those demand events it estimates the burst period
// (median of recent gaps) and size (EWMA), then pre-schedules a
// right-sized grant one period after each observed event. The feedback
// loop is self-correcting: well-timed grants absorb the traffic and BSRs
// fall silent; any drift makes frames wait, BSRs fire again, and the
// anchor snaps back to the observed demand. VCA traffic is "very
// predictable" (a frame every 33 or 66 ms, sizes that rarely change
// significantly), which is exactly why this works.

// predictor learns one UE's demand pattern from BSR events.
type predictor struct {
	// large-flow (video frame) model
	gaps      []time.Duration
	sizes     []units.ByteCount
	period    time.Duration
	size      units.ByteCount
	anchor    time.Duration
	lastLarge time.Duration
	primed    bool

	// small-flow (audio sample) model
	smallGaps   []time.Duration
	smallSizes  []units.ByteCount
	smallPeriod time.Duration
	smallSize   units.ByteCount
	smallAnchor time.Duration
	smallLast   time.Duration
	smallPrimed bool
}

// Demand-learning parameters.
const (
	burstSizeMin   = 1000 // bytes distinguishing a frame from an audio sample
	predictHistory = 8    // gaps kept for the period estimate
	predictMargin  = 1.2  // grant head-room over the predicted size
)

// observeDemand records a BSR reporting fresh backlog of `bytes` at slot
// `now`, updating the learned model and re-anchoring predictions.
func (p *predictor) observeDemand(bytes units.ByteCount, now time.Duration) {
	if bytes >= burstSizeMin {
		p.learn(&p.gaps, &p.sizes, &p.period, &p.size, &p.lastLarge, &p.primed,
			bytes, now, 10*time.Millisecond, 500*time.Millisecond)
		if p.primed {
			p.anchor = now + p.period
		}
		return
	}
	p.learn(&p.smallGaps, &p.smallSizes, &p.smallPeriod, &p.smallSize, &p.smallLast, &p.smallPrimed,
		bytes, now, 5*time.Millisecond, 200*time.Millisecond)
	if p.smallPrimed {
		p.smallAnchor = now + p.smallPeriod
	}
}

// learn updates one flow model with a demand event. The size estimate is
// the max over a recent window rather than a mean: SVC frame sizes
// alternate between larger base frames and smaller enhancement frames, and
// a mean-sized grant would strand the tail of every base frame behind a
// 10 ms BSR round trip.
func (p *predictor) learn(gaps *[]time.Duration, sizes *[]units.ByteCount,
	period *time.Duration, size *units.ByteCount, last *time.Duration,
	primed *bool, bytes units.ByteCount, now, gapMin, gapMax time.Duration) {
	*sizes = append(*sizes, bytes)
	if len(*sizes) > predictHistory {
		*sizes = (*sizes)[1:]
	}
	*size = 0
	for _, b := range *sizes {
		if b > *size {
			*size = b
		}
	}
	if *last != 0 {
		gap := now - *last
		if gap > gapMin && gap < gapMax {
			*gaps = append(*gaps, gap)
			if len(*gaps) > predictHistory {
				*gaps = (*gaps)[1:]
			}
		}
	}
	*last = now
	if len(*gaps) >= 4 {
		*period = medianDuration(*gaps)
		*primed = true
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	s := make([]time.Duration, len(ds))
	copy(s, ds)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// predictiveGrants queues grants on u at predicted demand times; BSR
// remains active as the learning signal and fallback.
func (r *RAN) predictiveGrants(u *UE, now time.Duration) {
	p := u.pred
	if p == nil {
		p = &predictor{}
		u.pred = p
	}
	if p.primed && p.period > 0 {
		// Issue one slot ahead of the predicted arrival: an early grant
		// is retried next slot (see onULSlot), so the burst is served
		// within a slot of arriving, at the cost of one small wasted TB —
		// the resource trade §5.2 acknowledges.
		for p.anchor <= now+r.Cfg.ULPeriod() {
			u.grants.PushBack(grant{
				ue:   u,
				tbs:  units.ByteCount(float64(p.size) * predictMargin),
				kind: telemetry.GrantAppAware,
			})
			p.anchor += p.period
		}
	}
	if p.smallPrimed && p.smallPeriod > 0 {
		for p.smallAnchor <= now {
			u.grants.PushBack(grant{
				ue:   u,
				tbs:  units.ByteCount(float64(p.smallSize)*predictMargin) + 60,
				kind: telemetry.GrantAppAware,
			})
			p.smallAnchor += p.smallPeriod
		}
	}
}
