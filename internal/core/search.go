package core

import (
	"time"

	"barbican/internal/apps"
	"barbican/internal/measure"
)

// DoSThresholdMbps is the paper's denial-of-service criterion: the
// bandwidth measurement "fell to approximately 0 Mbps" — here read as
// under 2.5% of the network's nominal 100 Mbps.
const DoSThresholdMbps = 2.5

// Search bounds for the minimum flood rate, in packets per second.
const (
	MinSearchRatePPS = 250
	MaxSearchRatePPS = 40_000
	// SearchResolutionPPS is the binary search's terminal interval.
	SearchResolutionPPS = 125
)

// MinFloodResult reports a minimum-flood-rate search (MinFloodRateFrom
// or MinStatefloodRateFrom).
type MinFloodResult struct {
	// Found reports whether any rate within the search bounds caused
	// denial of service by the search's criterion.
	Found bool
	// RatePPS is the minimum flood rate that did.
	RatePPS float64
	// LockedUp reports that the card wedged during the successful flood
	// (the EFW Deny-All failure); the paper could not record data for
	// this case because the card required an agent restart. Only the
	// bandwidth search sets it.
	LockedUp bool
	// Probes counts the measurements the search ran.
	Probes int
	// SimSeconds and WallBusy accumulate the probes' virtual time and
	// wall-clock cost for the executor's speedup accounting.
	SimSeconds float64
	WallBusy   time.Duration
}

// MinFloodRateFrom finds the minimum flood rate causing denial of
// service for the scenario by a search over the flood rate (see
// measure.Boundary) between MinSearchRatePPS and MaxSearchRatePPS, to
// SearchResolutionPPS. The scenario's FloodRatePPS field is ignored;
// each probe builds a fresh testbed so probes are independent and
// deterministic.
//
// A hint inside the bounds (typically the threshold found at the
// previous rule-set depth) warm-starts the search by galloping outward
// from it instead of probing the full bounds, cutting probe count when
// adjacent depths have nearby thresholds — which Figure 3(b)'s sweep
// structure guarantees. hint <= 0 runs the cold search.
func MinFloodRateFrom(s Scenario, hint float64) (MinFloodResult, error) {
	if s.Duration == 0 {
		s.Duration = 2 * time.Second // probes trade window length for search depth
	}
	var res MinFloodResult
	dos := func(rate float64) (bool, error) {
		sc := s
		sc.FloodRatePPS = rate
		p, _, err := RunBandwidth(sc, nil)
		if err != nil {
			return false, err
		}
		res.Probes++
		res.SimSeconds += p.SimSeconds
		res.WallBusy += p.WallBusy
		// A wedged card is a successful denial of service even if some
		// bytes moved before it locked up.
		hit := p.Mbps() < DoSThresholdMbps || p.TargetLocked
		if hit {
			// The result is the last rate that hit; report its lockup.
			res.LockedUp = p.TargetLocked
		}
		return hit, nil
	}
	_, rate, found, err := measure.Boundary(MinSearchRatePPS, MaxSearchRatePPS, SearchResolutionPPS, hint, dos)
	if err != nil {
		return res, err
	}
	if found {
		res.Found, res.RatePPS = true, rate
	}
	return res, nil
}

// setupHTTPServer starts the Table 1 web server on the testbed target.
func setupHTTPServer(tb *Testbed) error {
	_, err := apps.NewHTTPServer(tb.Target, apps.HTTPServerConfig{})
	return err
}
