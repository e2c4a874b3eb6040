package measure_test

import (
	"fmt"
	"slices"
	"testing"

	"barbican/internal/measure"
)

// The two functions below are the galloping bisections that
// measure.Boundary replaced, kept verbatim in control flow as
// references: refMinRate is the loop core.MinFloodRateFrom and
// core.MinStatefloodRateFrom each carried, refZeroLoss the one in
// measure.ZeroLossThroughputFrom. Probe bookkeeping (counts, lockup,
// costs) is left to the callers' closures and dropped here.

// refMinRate returns whether any rate in [floor, ceil] hits and the
// lowest such rate found.
func refMinRate(floor, ceil, resolution, hint float64, hit func(float64) bool) (bool, float64) {
	var lo, hi float64
	if hint > 0 {
		lo, hi = hint, hint
		if lo < floor {
			lo = floor
		}
		if hi > ceil {
			hi = ceil
		}
		step := resolution
		if hit(hi) {
			for {
				lo = hi - step
				if lo <= floor {
					lo = floor
				}
				if !hit(lo) {
					break
				}
				hi = lo
				if lo == floor {
					return true, lo
				}
				step *= 2
			}
		} else {
			for {
				hi = lo + step
				if hi >= ceil {
					hi = ceil
				}
				if hit(hi) {
					break
				}
				lo = hi
				if hi == ceil {
					return false, 0
				}
				step *= 2
			}
		}
	} else {
		lo, hi = floor, ceil
		if !hit(hi) {
			return false, 0
		}
		if hit(lo) {
			return true, lo
		}
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		if hit(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return true, hi
}

// refZeroLoss returns the highest passing rate in [0, maxRate] and
// whether that is maxRate itself (line rate).
func refZeroLoss(maxRate, hint float64, passes func(float64) bool) (float64, bool) {
	var lo, hi float64
	if hint > 0 && hint < maxRate {
		step := maxRate / 256
		if passes(hint) {
			lo = hint
			for {
				hi = lo + step
				if hi >= maxRate {
					hi = maxRate
				}
				if !passes(hi) {
					break
				}
				lo = hi
				if hi == maxRate {
					return maxRate, true
				}
				step *= 2
			}
		} else {
			hi = hint
			for {
				lo = hi - step
				if lo <= 0 {
					lo = 0
					break
				}
				if passes(lo) {
					break
				}
				hi = lo
				step *= 2
			}
		}
	} else {
		if passes(maxRate) {
			return maxRate, true
		}
		lo, hi = 0.0, maxRate
	}
	for hi-lo > maxRate/256 {
		mid := (lo + hi) / 2
		if passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, false
}

// probeLog wraps a threshold predicate (hit at and above threshold) and
// records every probe.
type probeLog struct {
	threshold float64
	probes    []float64
	lastHit   float64
}

func (p *probeLog) hit(x float64) bool {
	p.probes = append(p.probes, x)
	if x >= p.threshold {
		p.lastHit = x
		return true
	}
	return false
}

// grid returns n+1 evenly spaced points on [a, b] plus extra.
func grid(a, b float64, n int, extra ...float64) []float64 {
	out := append([]float64(nil), extra...)
	for i := 0; i <= n; i++ {
		out = append(out, a+(b-a)*float64(i)/float64(n))
	}
	return out
}

// inside returns the points of xs strictly inside (lo, hi).
func inside(lo, hi float64, xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > lo && x < hi {
			out = append(out, x)
		}
	}
	return out
}

// TestBoundaryMatchesMinRateSearch drives the old minimum-rate loop and
// Boundary with the same synthetic thresholds, across the whole bracket
// and beyond both ends, cold and from every hint strictly inside it:
// the probe sequences and the results must be identical, and the
// returned hi must be the last probe that hit (the caller reports that
// probe's lockup).
func TestBoundaryMatchesMinRateSearch(t *testing.T) {
	const floor, ceil, res = 250, 40_000, 125
	thresholds := grid(0, 41_000, 410, floor, floor+1, floor+res, ceil-1, ceil, ceil+1, 12_050.8, 3_899)
	hints := append([]float64{0}, inside(floor, ceil, grid(floor, ceil, 640, floor+0.001, ceil-0.001, 12_050.8, 3_898.4375))...)
	for _, th := range thresholds {
		for _, hint := range hints {
			ref, got := &probeLog{threshold: th}, &probeLog{threshold: th}
			wantFound, wantRate := refMinRate(floor, ceil, res, hint, ref.hit)
			_, hi, found, err := measure.Boundary(floor, ceil, res, hint, func(x float64) (bool, error) { return got.hit(x), nil })
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("threshold %g hint %g", th, hint)
			if !slices.Equal(ref.probes, got.probes) {
				t.Fatalf("%s: probes differ:\nold: %v\nnew: %v", where, ref.probes, got.probes)
			}
			if found != wantFound || (found && hi != wantRate) {
				t.Fatalf("%s: got found=%v hi=%g, old found=%v rate=%g", where, found, hi, wantFound, wantRate)
			}
			if found && hi != got.lastHit {
				t.Fatalf("%s: hi %g is not the last hit probe %g", where, hi, got.lastHit)
			}
		}
	}
}

// TestBoundaryMatchesZeroLossSearch does the same for the RFC 2544
// loop, whose floor is zero (never probed) and whose answer is lo.
func TestBoundaryMatchesZeroLossSearch(t *testing.T) {
	for _, maxRate := range []float64{148_809.5238095238, 8_127.438231469441, 100} {
		res := maxRate / 256
		thresholds := grid(-1, maxRate*1.01, 300, 0, res/2, maxRate-res/2, maxRate)
		hints := append([]float64{0}, inside(0, maxRate, grid(0, maxRate, 500, 1e-6, maxRate*(1-1e-9)))...)
		for _, th := range thresholds {
			for _, hint := range hints {
				// The trial passes up to and including th; it hits
				// (loses frames) strictly above.
				var refProbes []float64
				wantRate, wantLine := refZeroLoss(maxRate, hint, func(x float64) bool {
					refProbes = append(refProbes, x)
					return x <= th
				})
				var probes []float64
				lo, _, found, err := measure.Boundary(0, maxRate, res, hint, func(x float64) (bool, error) {
					probes = append(probes, x)
					return x > th, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("max %g threshold %g hint %g", maxRate, th, hint)
				if !slices.Equal(refProbes, probes) {
					t.Fatalf("%s: probes differ:\nold: %v\nnew: %v", where, refProbes, probes)
				}
				if lo != wantRate || found == wantLine {
					t.Fatalf("%s: got lo=%g found=%v, old rate=%g line=%v", where, lo, found, wantRate, wantLine)
				}
			}
		}
	}
}

// TestBoundaryOutOfRangeHintRunsCold pins the one place the old loops
// disagreed: a hint at or outside the bracket. The minimum-rate loop
// clamped it to the nearest bound and probed from there; the RFC 2544
// loop ran cold. Boundary runs cold, so the hint changes nothing.
func TestBoundaryOutOfRangeHintRunsCold(t *testing.T) {
	const floor, ceil, res = 250, 40_000, 125
	for _, th := range []float64{0, 250, 5_000, 39_990, 50_000} {
		cold := &probeLog{threshold: th}
		wantLo, wantHi, wantFound, _ := measure.Boundary(floor, ceil, res, 0, func(x float64) (bool, error) { return cold.hit(x), nil })
		for _, hint := range []float64{-5, 100, floor, ceil, 60_000} {
			got := &probeLog{threshold: th}
			lo, hi, found, _ := measure.Boundary(floor, ceil, res, hint, func(x float64) (bool, error) { return got.hit(x), nil })
			if lo != wantLo || hi != wantHi || found != wantFound || !slices.Equal(got.probes, cold.probes) {
				t.Errorf("threshold %g hint %g: got (%g, %g, %v) after %v; cold search gives (%g, %g, %v) after %v",
					th, hint, lo, hi, found, got.probes, wantLo, wantHi, wantFound, cold.probes)
			}
		}
	}
}

// TestBoundaryStopsAtFirstError: a failing probe ends the search.
func TestBoundaryStopsAtFirstError(t *testing.T) {
	calls := 0
	_, _, _, err := measure.Boundary(0, 100, 1, 50, func(float64) (bool, error) {
		calls++
		if calls == 3 {
			return false, errSentinel{}
		}
		return false, nil
	})
	if err == nil || calls != 3 {
		t.Errorf("err = %v after %d probes; want the third probe's error", err, calls)
	}
}
