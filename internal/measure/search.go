package measure

// Boundary finds where a monotone predicate flips on [floor, ceil]: hit
// must be false below some threshold and true at and above it. It is
// the one threshold search behind every bisection in the evaluation —
// the minimum denial-of-service flood rate (hit: the flood denies
// service) and the RFC 2544 zero-loss throughput (hit: the trial loses
// frames).
//
// The search probes ceil first and, when floor is above zero, floor;
// a floor of zero is taken to miss without a probe. A hint strictly
// inside (floor, ceil) replaces those two probes with a galloping warm
// start: probe the hint, then step away from it, doubling a step that
// starts at the resolution, until the outcome flips or a bound is
// reached. Any other hint runs the cold search. Bisection then narrows
// the bracket until it is no wider than resolution.
//
// On return hi is the lowest probed point that hit and lo the highest
// point below it that missed (floor when none did). found is false when
// nothing up to ceil hits; lo is then ceil. Each probe calls hit once;
// the first error stops the search and is returned with zero values.
func Boundary(floor, ceil, resolution, hint float64, hit func(x float64) (bool, error)) (lo, hi float64, found bool, err error) {
	lo, hi = floor, ceil
	if hint > floor && hint < ceil {
		h, err := hit(hint)
		if err != nil {
			return 0, 0, false, err
		}
		step := resolution
		if h {
			// Gallop down for a point that misses.
			hi = hint
			for {
				lo = hi - step
				if lo <= floor {
					lo = floor
					if floor <= 0 {
						break
					}
				}
				h, err := hit(lo)
				if err != nil {
					return 0, 0, false, err
				}
				if !h {
					break
				}
				hi = lo
				if lo == floor {
					return lo, hi, true, nil
				}
				step *= 2
			}
		} else {
			// Gallop up for a point that hits.
			lo = hint
			for {
				hi = lo + step
				if hi >= ceil {
					hi = ceil
				}
				h, err := hit(hi)
				if err != nil {
					return 0, 0, false, err
				}
				if h {
					break
				}
				lo = hi
				if hi == ceil {
					return lo, hi, false, nil
				}
				step *= 2
			}
		}
	} else {
		h, err := hit(ceil)
		if err != nil {
			return 0, 0, false, err
		}
		if !h {
			return ceil, ceil, false, nil
		}
		if floor > 0 {
			h, err := hit(floor)
			if err != nil {
				return 0, 0, false, err
			}
			if h {
				return floor, floor, true, nil
			}
		}
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		h, err := hit(mid)
		if err != nil {
			return 0, 0, false, err
		}
		if h {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi, true, nil
}
