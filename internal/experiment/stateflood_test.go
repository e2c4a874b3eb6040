package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// TestStatefloodThresholdOrdering checks the family's headline result:
// state-table exhaustion (SYN flood vs the LRU table) DoSes the session
// at a packet rate strictly below the stateless packet-rate bound for
// the same card, and syn-early-drop pushes the bound back up.
func TestStatefloodThresholdOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full threshold search; skipped in -short")
	}
	tab, err := StatefloodThresholds(quickSF)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stateflood-thresholds", tab)
	rate := func(label string) float64 {
		t.Helper()
		for _, row := range tab.Rows {
			if row[0] != label {
				continue
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatalf("%s: unparseable rate %q (search exhausted?)", label, row[1])
			}
			return v
		}
		t.Fatalf("missing row %q in %v", label, tab.Rows)
		return 0
	}
	lru := rate("SYN flood / evict lru")
	synDrop := rate("SYN flood / evict syn-drop")
	stateless := rate("UDP flood / stateless policy (bandwidth criterion)")
	if lru >= stateless {
		t.Errorf("state exhaustion (%g pps) is not cheaper than the stateless packet-rate bound (%g pps)",
			lru, stateless)
	}
	if synDrop <= lru {
		t.Errorf("syn-drop threshold (%g pps) does not improve on lru (%g pps)", synDrop, lru)
	}
}

// TestStatefloodRecoveryTable checks the desync narrative end to end:
// keep severs the mid-outage flow, flush severs the pre-outage flows,
// resync keeps everything alive.
func TestStatefloodRecoveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full recovery sweep; skipped in -short")
	}
	tab, err := StatefloodRecovery(quickSF)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stateflood-recovery", tab)
	byPolicy := make(map[string][]string)
	for _, row := range tab.Rows {
		byPolicy[row[0]] = append([]string(nil), row...)
	}
	check := func(policy, pre, mid, fresh string) {
		t.Helper()
		row := byPolicy[policy]
		if row == nil {
			t.Fatalf("missing row %q in %v", policy, tab.Rows)
		}
		if row[1] != pre || row[2] != mid || row[3] != fresh {
			t.Errorf("%s: pre/mid/new = %q/%q/%q, want %q/%q/%q",
				policy, row[1], row[2], row[3], pre, mid, fresh)
		}
	}
	check("keep", "yes", "SEVERED", "yes")
	check("flush", "SEVERED", "SEVERED", "yes")
	check("resync", "yes", "yes", "yes")
	if row := byPolicy["keep"]; row != nil && !strings.Contains(row[5], "desync") {
		t.Errorf("keep row note does not name the desync hazard: %v", row)
	}
}
