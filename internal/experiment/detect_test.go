package experiment

import (
	"strconv"
	"testing"
)

// TestDetectionChaosTable checks the family's headline result at the
// experiment level: management-plane loss measurably widens both
// time-to-detect and the window of exposure versus the clean channel.
func TestDetectionChaosTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full detection regeneration; skipped in -short")
	}
	tab, err := DetectionChaos(quickS7)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "detect-chaos", tab)
	byLabel := make(map[string][]string)
	for _, row := range tab.Rows {
		byLabel[row[0]] = row
	}
	clean, lossy := byLabel["clean mgmt"], byLabel["mgmt loss 60%"]
	if clean == nil || lossy == nil {
		t.Fatalf("missing clean/loss rows in %v", tab.Rows)
	}
	num := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	if num(lossy, 1) <= num(clean, 1) {
		t.Errorf("time-to-detect under 60%% loss (%s ms) not wider than clean (%s ms)",
			lossy[1], clean[1])
	}
	if num(lossy, 2) <= num(clean, 2) {
		t.Errorf("exposure at detect under 60%% loss (%s) not wider than clean (%s)",
			lossy[2], clean[2])
	}
	if num(lossy, 6) == 0 {
		t.Errorf("60%% loss produced no telemetry sequence gaps: %v", lossy)
	}
}
