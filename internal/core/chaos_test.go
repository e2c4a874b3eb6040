package core_test

import (
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/faults"
	"barbican/internal/policy"
)

func TestChaosCleanChannelConverges(t *testing.T) {
	p, err := core.RunChaos(core.ChaosScenario{
		Device:       core.DeviceADF,
		FloodRatePPS: 2000,
		Duration:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Converged {
		t.Fatalf("clean channel did not converge: %+v", p)
	}
	if p.PushError != "" {
		t.Errorf("push error: %s", p.PushError)
	}
	if p.ConvergeTime <= 0 || p.ConvergeTime > time.Second {
		t.Errorf("converge time = %v", p.ConvergeTime)
	}
	if p.Server.Retries != 0 {
		t.Errorf("clean channel needed %d retries", p.Server.Retries)
	}
}

// TestChaosVerifySemantics: with VerifySemantics on, convergence is
// proven rather than assumed — the installed rule set is shown
// verdict-identical to the pushed policy over the entire packet space,
// and the card's compiled classifier equal to the linear walk on it.
func TestChaosVerifySemantics(t *testing.T) {
	p, err := core.RunChaos(core.ChaosScenario{
		Device:          core.DeviceADF,
		FloodRatePPS:    2000,
		Duration:        2 * time.Second,
		VerifySemantics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Converged {
		t.Fatalf("clean channel did not converge: %+v", p)
	}
	if !p.SemanticsVerified {
		t.Fatalf("semantic convergence proof failed: %s", p.SemanticsError)
	}
	if p.SemanticsError != "" {
		t.Errorf("verified install carries an error: %s", p.SemanticsError)
	}
}

// TestChaosConvergesUnderLoss: ≥10% management-channel frame loss. TCP
// retransmission plus the server's per-attempt timeout and retry/backoff
// must still land the policy.
func TestChaosConvergesUnderLoss(t *testing.T) {
	p, err := core.RunChaos(core.ChaosScenario{
		Device:       core.DeviceADF,
		FloodRatePPS: 2000,
		MgmtFaults:   faults.Plan{Loss: 0.25},
		Duration:     3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Converged {
		t.Fatalf("push did not converge through 25%% loss: %+v", p)
	}
	if p.PushError != "" {
		t.Errorf("push error: %s", p.PushError)
	}
}

// TestChaosPartitionNeedsRetries is the PR's core demonstration: a
// partition window swallowing the push. The single-shot legacy behavior
// (MaxAttempts: 1) never converges; the retry engine converges once the
// window lifts.
func TestChaosPartitionNeedsRetries(t *testing.T) {
	base := core.ChaosScenario{
		Device:       core.DeviceADF,
		FloodRatePPS: 2000,
		MgmtFaults:   faults.Plan{Down: []faults.Window{{From: 900 * time.Millisecond, To: 2500 * time.Millisecond}}},
		PushAt:       time.Second,
		Duration:     5 * time.Second,
	}

	legacy := base
	legacy.Push = policy.PushOptions{MaxAttempts: 1}
	lp, err := core.RunChaos(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Converged {
		t.Fatalf("single-shot push converged through a partition: %+v", lp)
	}
	if lp.PushError == "" {
		t.Error("single-shot push reported no terminal error")
	}

	rp, err := core.RunChaos(base)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Converged {
		t.Fatalf("retrying push did not converge after the partition lifted: %+v", rp)
	}
	if rp.Server.Retries == 0 {
		t.Error("retrying push converged without retries — partition did not bite")
	}
	if rp.ConvergedAt < 2500*time.Millisecond {
		t.Errorf("converged at %v, inside the partition window", rp.ConvergedAt)
	}
}

// TestChaosDataPlaneFaultsViaScenario exercises the Scenario.Faults
// hook floodsim uses: loss on the target's access link degrades iperf.
func TestChaosDataPlaneFaultsViaScenario(t *testing.T) {
	clean, _, err := core.RunBandwidth(core.Scenario{Device: core.DeviceADF, Depth: 1, Duration: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, _, err := core.RunBandwidth(core.Scenario{
		Device: core.DeviceADF, Depth: 1, Duration: time.Second,
		Faults: &faults.Plan{Loss: 0.05},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Mbps() >= clean.Mbps() {
		t.Errorf("5%% loss did not reduce bandwidth: clean %.1f, lossy %.1f", clean.Mbps(), lossy.Mbps())
	}
	if lossy.Mbps() <= 0 {
		t.Errorf("TCP made no progress at all under 5%% loss: %.1f", lossy.Mbps())
	}
}
