package barbican_test

import (
	"strconv"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/experiment"
)

// Each benchmark regenerates one of the paper's artifacts and reports
// the headline simulated metrics via b.ReportMetric, so `go test
// -bench=.` doubles as a quick reproduction run. The Quick config keeps
// sweeps to representative points; `cmd/barbican` runs the full sweeps.

var benchCfg = experiment.Config{Quick: true, Duration: time.Second}

// BenchmarkFig2AvailableBandwidth regenerates Figure 2.
func BenchmarkFig2AvailableBandwidth(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiment.Fig2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, "Mbps_"+metricLabel(s.Label)+"_deepest")
	}
}

// BenchmarkFig3aFloodBandwidth regenerates Figure 3(a).
func BenchmarkFig3aFloodBandwidth(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiment.Fig3a(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, "Mbps_"+metricLabel(s.Label)+"_at12500pps")
	}
}

// BenchmarkFig3bMinFloodRate regenerates Figure 3(b).
func BenchmarkFig3bMinFloodRate(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiment.Fig3b(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, "pps_"+metricLabel(s.Label)+"_deepest")
	}
}

// BenchmarkTable1HTTPPerformance regenerates Table 1.
func BenchmarkTable1HTTPPerformance(b *testing.B) {
	var tab *experiment.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiment.Table1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Row 0 is fetches/s; column 1 is the standard NIC, last is VPG.
	if len(tab.Rows) > 0 && len(tab.Rows[0]) > 2 {
		b.ReportMetric(atof(tab.Rows[0][1]), "fetches/s_standard")
		b.ReportMetric(atof(tab.Rows[0][len(tab.Rows[0])-1]), "fetches/s_vpg")
	}
}

// BenchmarkAblationDenyResponses regenerates ablation ABL1.
func BenchmarkAblationDenyResponses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationDenyResponses(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVPGLazyDecrypt regenerates ablation ABL2.
func BenchmarkAblationVPGLazyDecrypt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationVPGLazyDecrypt(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTrailingRules regenerates ablation ABL3.
func BenchmarkAblationTrailingRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationTrailingRules(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// seconds of a fully loaded EFW testbed per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		p, _, err := core.RunBandwidth(core.Scenario{
			Device: core.DeviceEFW, Depth: 64,
			FloodRatePPS: 8000, FloodAllowed: true,
			Duration: time.Second,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += p.TargetNIC.RxFrames
	}
	b.ReportMetric(float64(events)/float64(b.N), "frames/run")
}

// BenchmarkMinFloodSearch measures a full binary search.
func BenchmarkMinFloodSearch(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := core.MinFloodRateFrom(core.Scenario{
			Device: core.DeviceEFW, Depth: 64, FloodAllowed: true,
			Duration: time.Second,
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RatePPS
	}
	b.ReportMetric(rate, "min_pps")
}

func metricLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')':
			// skip
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func atof(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
