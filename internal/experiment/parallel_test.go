package experiment

import (
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/runner"
)

// TestConcurrentPointsRace drives two experiment points through the
// executor at Workers=2 so the race detector (CI runs this file under
// -race) can observe any sharing between concurrently running kernels,
// testbeds, or scratch buffers.
func TestConcurrentPointsRace(t *testing.T) {
	points, err := runner.Map(runner.Pool{Workers: 2}, 2, func(i int) (core.BandwidthPoint, error) {
		p, _, err := core.RunBandwidth(core.Scenario{
			Device: core.DeviceEFW, Depth: 1 + 63*i, // one cheap point, one deep one
			FloodRatePPS: 4000 * float64(i), FloodAllowed: true,
			Duration: 250 * time.Millisecond,
		}, nil)
		return p, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if p.Iperf.BytesReceived == 0 {
			t.Errorf("point %d moved no bytes", i)
		}
	}
}

// TestAccountingAccumulates checks that experiment runs feed the
// executor accounting: points, simulated seconds, and kernel wall time
// must all be positive after a sweep.
func TestAccountingAccumulates(t *testing.T) {
	var acct Accounting
	cfg := Config{Quick: true, Duration: 250 * time.Millisecond, Account: &acct}
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	points, simSecs, busy := acct.Totals()
	if points == 0 || simSecs <= 0 || busy <= 0 {
		t.Errorf("accounting empty after Fig2: points=%d sim=%.3f busy=%v", points, simSecs, busy)
	}
	// 11 quick points × (0.25 s window + 50 ms drain + handshakes).
	if simSecs < 2 {
		t.Errorf("sim seconds = %.3f, want ≥ 2", simSecs)
	}
}
