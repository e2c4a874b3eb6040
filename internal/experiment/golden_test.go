package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The goldens under testdata/golden pin every experiment family's
// quick-mode output: text, markdown and CSV of each figure and table,
// and the fleet-health report. They were rendered once from a serial
// (Parallel: 1) run. Every test that compares against them renders at
// Parallel: 8, so one comparison checks both that no refactor moved a
// figure, table or probe count and that the worker count leaks into no
// rendered byte.

// Configurations of the golden runs, one per family group.
var (
	quick     = Config{Quick: true, Parallel: 8}
	quickNG   = Config{Quick: true, Duration: 300 * time.Millisecond, Parallel: 8}
	quickS7   = Config{Quick: true, Seed: 7, FaultSeed: 42, Parallel: 8}
	quickSF   = Config{Quick: true, Seed: 7, Parallel: 8}
	goldenDir = filepath.Join("testdata", "golden")
)

// renderer is what figures and tables share: the three forms a golden
// pins.
type renderer interface {
	Render() string
	Markdown() string
	WriteCSV(io.Writer) error
}

// checkGolden compares v (a *Figure, *Table or string) with
// testdata/golden/<name>.golden.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	var got bytes.Buffer
	switch v := v.(type) {
	case renderer:
		got.WriteString(v.Render() + "\n" + v.Markdown() + "\n")
		if err := v.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
	case string:
		got.WriteString(v)
	default:
		t.Fatalf("golden %s: cannot render %T", name, v)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g := got.Bytes()
	i := 0
	for i < len(g) && i < len(want) && g[i] == want[i] {
		i++
	}
	lo, hiG, hiW := max(0, i-80), min(len(g), i+80), min(len(want), i+80)
	t.Fatalf("%s differs from its golden at byte %d:\ngot:  …%q…\nwant: …%q…", name, i, g[lo:hiG], want[lo:hiW])
}

// TestGoldens renders the families that no shape test renders and
// compares each with its golden; the shape tests compare the rest.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("renders whole experiment families; skipped in -short")
	}
	fig := func(fn func(Config) (*Figure, error)) func(Config) (any, error) {
		return func(cfg Config) (any, error) { return fn(cfg) }
	}
	tab := func(fn func(Config) (*Table, error)) func(Config) (any, error) {
		return func(cfg Config) (any, error) { return fn(cfg) }
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(Config) (any, error)
	}{
		{"timeline", quick, fig(FloodTimeline)},
		{"ext3", quick, tab(ExtensionFragmentEvasion)},
		{"chaos-bandwidth", quickS7, fig(ChaosBandwidth)},
		{"detect-latency", quickS7, fig(DetectionLatency)},
		{"detect-exposure", quickS7, tab(DetectionExposure)},
		{"detect-false-positives", quickS7, tab(DetectionFalsePositives)},
		{"fleet-health", quickS7, func(cfg Config) (any, error) { return FleetHealth(cfg) }},
		{"stateflood-curves", quickSF, fig(StatefloodCurves)},
		{"stateflood-ack", quickSF, tab(StatefloodACK)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := tc.run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, v)
		})
	}
}
