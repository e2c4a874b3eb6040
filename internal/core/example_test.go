package core_test

import (
	"fmt"

	"barbican/internal/core"
)

// Reproduce the paper's headline number: the flood rate that denies
// service to an EFW enforcing a single allow rule.
func ExampleMinFloodRateFrom() {
	r, err := core.MinFloodRateFrom(core.Scenario{
		Device:       core.DeviceEFW,
		Depth:        1,
		FloodAllowed: true,
	}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The paper: "an attacker only needs to generate a flood of
	// 12,500 packets per second".
	fmt.Printf("DoS found: %v, between 9k and 16k pps: %v\n",
		r.Found, r.RatePPS > 9_000 && r.RatePPS < 16_000)
	// Output: DoS found: true, between 9k and 16k pps: true
}
