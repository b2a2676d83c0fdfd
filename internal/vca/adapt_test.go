package vca

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// jitterOracle checks one window: whenever the exact sums decide, they
// must agree with the Welford pass; it reports whether they decided.
func jitterOracle(t *testing.T, a *Adaptation, what string) (decided bool) {
	t.Helper()
	want := a.jitter() > a.HighJitter
	if got := a.jittery(); got != want {
		t.Fatalf("%s: jittery() = %t, jitter() %v > %v is %t", what, got, a.jitter(), a.HighJitter, want)
	}
	high, ok := a.jitteryFromSums()
	if ok && high != want {
		t.Fatalf("%s: the sums decide %t, jitter() %v > %v is %t", what, high, a.jitter(), a.HighJitter, want)
	}
	return ok
}

// fill replaces a's window with ds, oldest first, pushing through the ring
// so the sums are maintained as Observe maintains them.
func fill(a *Adaptation, ds []time.Duration) {
	for _, d := range ds {
		a.push(d)
	}
}

// Random windows, fed one sample at a time through many ring wraps, around
// means from negative to 10 s, with spreads on both sides of the
// threshold: the sums decide nearly every window, and never differently.
func TestJitteryMatchesWelfordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	decided, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		a := NewAdaptation()
		mean := []time.Duration{-40 * time.Millisecond, 0, 60 * time.Millisecond, 1e10}[trial%4]
		spread := time.Duration(rng.Int63n(int64(80 * time.Millisecond)))
		for i := 0; i < 300; i++ {
			a.push(mean + time.Duration(rng.NormFloat64()*float64(spread)))
			if a.n >= 10 {
				total++
				if jitterOracle(t, a, "random window") {
					decided++
				}
			}
		}
	}
	if decided < total*99/100 {
		t.Fatalf("the sums decided %d of %d random windows; the fast path is not taken", decided, total)
	}
}

// Windows built so the Welford standard deviation lands within ±2 ns of
// the threshold, where the sums must hand over to the Welford pass or
// agree with it exactly: alternating mean±s (population σ = s exactly)
// and random windows rescaled to σ ≈ threshold, at exactly 10 samples and
// up to a full window, with negative, typical and 10¹⁰ ns means, for the
// default threshold and for thresholds of 1 µs and 3 ns.
func TestJitteryMatchesWelfordAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, h := range []time.Duration{NewAdaptation().HighJitter, 1000, 3} {
		for _, n := range []int{10, 11, 49, 50} {
			for _, mean := range []time.Duration{-30 * time.Millisecond, 0, 45 * time.Millisecond, 1e10} {
				thresholdWindows(t, rng, h, n, mean)
			}
		}
	}
}

// thresholdWindows checks windows of n samples around mean whose σ is
// within ±2 ns of h: alternating ones at whole nanoseconds, rescaled
// random ones at half nanoseconds too.
func thresholdWindows(t *testing.T, rng *rand.Rand, h time.Duration, n int, mean time.Duration) {
	t.Helper()
	ds := make([]time.Duration, n)
	check := func(what string) {
		a := NewAdaptation()
		a.HighJitter = h
		fill(a, ds)
		jitterOracle(t, a, what)
	}
	for half := -4; half <= 4; half++ {
		s := float64(h) + float64(half)/2
		if half%2 == 0 {
			for i := range ds {
				ds[i] = mean + time.Duration(s)
				if i%2 == 1 {
					ds[i] = mean - time.Duration(s)
				}
			}
			check("alternating window")
		}
		// Random shape, deviations rescaled so σ ≈ s.
		for rep := 0; rep < 20; rep++ {
			dev := make([]float64, n)
			var sum, sq float64
			for i := range dev {
				dev[i] = rng.NormFloat64()
				sum += dev[i]
			}
			for i := range dev {
				dev[i] -= sum / float64(n)
				sq += dev[i] * dev[i]
			}
			scale := s / math.Sqrt(sq/float64(n))
			for i := range ds {
				ds[i] = mean + time.Duration(math.Round(dev[i]*scale))
			}
			check("rescaled window")
		}
	}
}

// Windows just outside the band where the sums hand over, and thresholds
// from 0 to 25 ms under a 10¹⁰ ns mean, where the Welford pass rounds
// most: the sums decide these, and must decide as the pass does.
func TestJitteryMatchesWelfordAtBandEdge(t *testing.T) {
	for _, h := range []time.Duration{0, 1, time.Microsecond, 25 * time.Millisecond} {
		for _, mean := range []time.Duration{-time.Second, 20 * time.Millisecond, 1e10} {
			for _, rel := range []float64{-1e-4, -1e-5, -3e-6, -1.5e-6, 1.5e-6, 3e-6, 1e-5, 1e-4} {
				s := time.Duration(math.Round(float64(h+1) * (1 + rel)))
				for _, n := range []int{10, 50} {
					ds := make([]time.Duration, n)
					for i := range ds {
						ds[i] = mean + s
						if i%2 == 1 {
							ds[i] = mean - s
						}
					}
					a := NewAdaptation()
					a.HighJitter = h
					fill(a, ds)
					jitterOracle(t, a, "band-edge window")
				}
			}
		}
	}
}

// Near ties where the Welford pass itself rounds visibly: a few-ns spread
// on a mean of ±10¹² ns (close to the exact range's edge) under a 0 or
// 1 ns threshold. Only the slack that grows with the mean keeps the sums
// from deciding these differently.
func TestJitteryMatchesWelfordOnHugeMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 20000; rep++ {
		mean := time.Duration(1e12)
		if rep%2 == 1 {
			mean = -mean
		}
		ds := make([]time.Duration, 10+rep%3)
		for i := range ds {
			ds[i] = mean + time.Duration(rng.Intn(5)-2)
		}
		a := NewAdaptation()
		a.HighJitter = time.Duration(rep / 2 % 2)
		fill(a, ds)
		jitterOracle(t, a, "huge-mean window")
	}
}

// The ring evicts in arrival order: after any number of wraps the window
// is the last 50 samples, and the sums equal those of a fresh window
// built from them.
func TestJitterRingWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAdaptation()
	var all []time.Duration
	for i := 0; i < 537; i++ {
		d := time.Duration(rng.Int63n(int64(200*time.Millisecond))) - 50*time.Millisecond
		a.push(d)
		all = append(all, d)
		fresh := NewAdaptation()
		fill(fresh, all[max(0, len(all)-jitterWindow):])
		if a.n != fresh.n || a.sum != fresh.sum || a.sq != fresh.sq || a.jitter() != fresh.jitter() {
			t.Fatalf("after %d samples the ring holds n=%d Σ=%d σ=%v, want n=%d Σ=%d σ=%v",
				i+1, a.n, a.sum, a.jitter(), fresh.n, fresh.sum, fresh.jitter())
		}
		if a.n >= 10 {
			jitterOracle(t, a, "wrapping window")
		}
	}
}

// Out of the exact range — samples beyond ±2⁴⁰ ns, or thresholds that are
// negative or past 2³¹ ns — every decision is the Welford pass's.
func TestJitteryOutOfRangeFallsBack(t *testing.T) {
	a := NewAdaptation()
	for i := 0; i < 20; i++ {
		a.push(time.Duration(i) * time.Millisecond)
	}
	a.push(1 << 41)
	if _, ok := a.jitteryFromSums(); ok {
		t.Fatal("the sums decided a window holding a sample beyond 2⁴⁰ ns")
	}
	jitterOracle(t, a, "wide sample")
	for i := 0; i < jitterWindow; i++ {
		a.push(time.Duration(i) * time.Millisecond)
	}
	if _, ok := a.jitteryFromSums(); !ok {
		t.Fatal("the sums stay undecided after the wide sample left the window")
	}
	for _, h := range []time.Duration{-1, 0, 1, 1<<31 - 1, 1 << 31, 5 * time.Second} {
		a.HighJitter = h
		jitterOracle(t, a, "threshold "+h.String())
	}
}

// The jitter test allocates nothing: the window is a fixed ring.
func TestObserveNoAllocs(t *testing.T) {
	a := NewAdaptation()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		a.Observe(time.Duration(i%97)*time.Millisecond, time.Duration(i)*time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}
