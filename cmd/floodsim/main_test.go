package main

import (
	"os"
	"path/filepath"
	"testing"

	"barbican/internal/core"
)

func TestParseDevice(t *testing.T) {
	tests := []struct {
		give    string
		want    core.Device
		wantErr bool
	}{
		{give: "efw", want: core.DeviceEFW},
		{give: "EFW", want: core.DeviceEFW},
		{give: "adf", want: core.DeviceADF},
		{give: "vpg", want: core.DeviceADFVPG},
		{give: "adf-vpg", want: core.DeviceADFVPG},
		{give: "iptables", want: core.DeviceIPTables},
		{give: "nextgen", want: core.DeviceNextGen},
		{give: "stateful", want: core.DeviceStateful},
		{give: "standard", want: core.DeviceStandard},
		{give: "none", want: core.DeviceStandard},
		{give: "3com", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseDevice(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseDevice(%q) = %v, want error", tt.give, got)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parseDevice(%q) = %v, %v; want %v", tt.give, got, err, tt.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-device", "hal9000"}); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunMeasurementAndPcap(t *testing.T) {
	pcap := filepath.Join(t.TempDir(), "out.pcap")
	err := run([]string{"-device", "efw", "-depth", "4", "-rate", "1000",
		"-duration", "200ms", "-pcap", pcap})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunPcapWithArtifacts: one observed run writes the pcap and the
// telemetry together.
func TestRunPcapWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	pcap := filepath.Join(dir, "out.pcap")
	err := run([]string{"-device", "stateful", "-depth", "4", "-rate", "1000",
		"-duration", "200ms", "-pcap", pcap, "-metrics-out", dir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"out.pcap", "floodsim_statefulfw_depth-4_rate-1000_allowed.prom"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}
}

func TestRunSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("binary search is slow")
	}
	if err := run([]string{"-device", "efw", "-depth", "64", "-search", "-duration", "1s"}); err != nil {
		t.Fatalf("run -search: %v", err)
	}
}
