package core

import (
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/measure"
)

// TestFloodScenarioReleasesEveryFrame is the frame-ownership leak test:
// every holder along a frame's path — links, switch, cards, fault
// injectors — must release what it takes. It runs a flood and iperf
// through the testbed, stops both, runs the kernel until its queue is
// empty and then requires every card's frame pool to have all its
// frames back. A forgotten Release shows as an outstanding frame; a
// double one panics.
func TestFloodScenarioReleasesEveryFrame(t *testing.T) {
	lossy, err := faults.ParsePlan("loss=0.02,corrupt=0.01,dup=0.02,reorder=0.02")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    Scenario
	}{
		{"efw-allowed-flood", Scenario{Device: DeviceEFW, Depth: 16, FloodAllowed: true}},
		{"efw-denied-flood-lossy-link", Scenario{Device: DeviceEFW, Depth: 16, Faults: &lossy}},
		{"adf-vpg-allowed-flood", Scenario{Device: DeviceADFVPG, Depth: 4, FloodAllowed: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := buildTestbed(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			flood := measure.NewFlooder(tb.Attacker, tb.Target.IP(), measure.FloodConfig{
				Kind: measure.FloodUDP, RatePPS: 6000, DstPort: FloodPort,
			})
			tb.Kernel.After(100*time.Millisecond, flood.Start)
			res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{Duration: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			flood.Stop()
			if err := tb.Kernel.Run(); err != nil {
				t.Fatal(err)
			}
			if tb.Kernel.Len() != 0 {
				t.Fatalf("kernel queue holds %d events after Run", tb.Kernel.Len())
			}
			if res.BytesReceived == 0 || flood.Sent() == 0 {
				t.Fatalf("no traffic: iperf %d bytes, flood %d packets", res.BytesReceived, flood.Sent())
			}
			for _, h := range []struct {
				name string
				out  int
			}{
				{"policy-server", tb.PolicyServer.NIC().FramesOutstanding()},
				{"attacker", tb.Attacker.NIC().FramesOutstanding()},
				{"client", tb.Client.NIC().FramesOutstanding()},
				{"target", tb.Target.NIC().FramesOutstanding()},
			} {
				if h.out != 0 {
					t.Errorf("%s card: %d frames still outstanding on an idle network", h.name, h.out)
				}
			}
		})
	}
}
