package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"barbican/internal/sim"
)

// TestPerturbedReferenceFails runs efw-flood against its committed
// reference, then against a copy with one counter changed: every
// episode must pass the first and fail the second.
func TestPerturbedReferenceFails(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFor(refs, "efw-flood", 1)
	if want == nil {
		t.Fatal("no efw-flood reference for seed 1")
	}
	w := simWorkloads["efw-flood"]

	c := &check{want: want}
	if err := runSim("efw-flood", w, 1, 0, false, c, &report{}); err != nil {
		t.Fatal(err)
	}
	if c.attempted != minEpisodes || c.failed != 0 {
		t.Fatalf("committed reference: %d attempted, %d failed (%v)", c.attempted, c.failed, c.problems)
	}

	perturbed := outputs{}
	for k, v := range want {
		perturbed[k] = v
	}
	perturbed["kernel_executed"]++
	c = &check{want: perturbed}
	if err := runSim("efw-flood", w, 1, 0, false, c, &report{}); err != nil {
		t.Fatal(err)
	}
	if c.attempted != minEpisodes || c.failed != c.attempted {
		t.Fatalf("perturbed reference: %d attempted, %d failed", c.attempted, c.failed)
	}
	if !strings.Contains(c.problems[0], "kernel_executed") {
		t.Errorf("problem %q does not name the perturbed output", c.problems[0])
	}
}

// TestPerturbedSetFailsOneOperation checks that a policy-verify pass
// counts a changed region count as one failed rule set, not a failed
// pass.
func TestPerturbedSetFailsOneOperation(t *testing.T) {
	ep := &verifyEpisode{sets: 3, out: outputs{}}
	for _, k := range []string{"set000.", "set001.", "set002."} {
		ep.out[k+"proof_ok"] = 1
		ep.out[k+"regions"] = 10
	}
	want := outputs{}
	for k, v := range ep.out {
		want[k] = v
	}
	want["set001.regions"] = 11
	c := &check{want: want}
	c.checkPass(ep)
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("%d attempted, %d failed, want 3 and 1", c.attempted, c.failed)
	}

	ep.out["set002.proof_ok"] = 0
	c = &check{}
	c.checkPass(ep)
	if c.failed != 1 || !strings.Contains(c.problems[0], "set002.proof failed") {
		t.Fatalf("failed proof: %d failed, problems %v", c.failed, c.problems)
	}
}

// TestLayerRowsReconcile traces a whole stateful-bulk window: every
// executed event must land in a row, and the rows plus the time
// outside handlers must add up to the window's wall time.
func TestLayerRowsReconcile(t *testing.T) {
	ep, err := simWorkloads["stateful-bulk"].run(1, timed)
	if err != nil {
		t.Fatal(err)
	}
	tr := ep.tr
	if bad := reconcile(tr); bad != nil {
		t.Fatal(bad)
	}
	var events uint64
	for _, r := range tr.rows {
		events += r.Events
	}
	if events != ep.events {
		t.Errorf("rows count %d events, kernel executed %d", events, ep.events)
	}
	for _, l := range []string{"link", "nic", "measure"} {
		if r := tr.row(l); r.Events == 0 || r.Wall <= 0 {
			t.Errorf("row %s: %d events, %v", l, r.Events, r.Wall)
		}
	}
	if tr.Outside <= 0 || tr.Total <= tr.Outside {
		t.Errorf("outside %v of total %v", tr.Outside, tr.Total)
	}
}

// TestUnknownPackageNamedRow runs a handler from a package that has no
// row of its own and checks it is charged, by name, to the other row.
func TestUnknownPackageNamedRow(t *testing.T) {
	k := sim.NewKernel()
	tr := newLayerTracer(k, 0)
	tr.start()
	k.After(time.Millisecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.stop()
	other := tr.row(otherLayer)
	// A test binary names this package by its import path.
	if other.Events != 1 || len(other.Pkgs) != 1 || other.Pkgs[0] != "barbican/e2ebench" {
		t.Fatalf("other row = %+v, want one event from barbican/e2ebench", other)
	}
	if bad := reconcile(tr); bad != nil {
		t.Fatal(bad)
	}

	for _, tc := range []struct{ fn, layer, pkg string }{
		{"barbican/internal/link.(*Switch).ingress.func1", "link", "link"},
		{"barbican/internal/nic.New.func1", "nic", "nic"},
		{"barbican/internal/nic/conntrack.(*Table).expire", "nic", "nic/conntrack"},
		{"barbican/internal/measure.NewFlooder.func1", "measure", "measure"},
		{"barbican/internal/stack.(*Conn).armRTO-fm", "stack", "stack"},
		{"barbican/internal/telemetry.(*Agent).tick", otherLayer, "telemetry"},
		{"barbican/internal/sim.(*Kernel).NewTicker.func1", otherLayer, "sim"},
		{"main.main.func1", otherLayer, "main"},
	} {
		if layer, pkg := layerOf(tc.fn); layer != tc.layer || pkg != tc.pkg {
			t.Errorf("layerOf(%q) = %q, %q; want %q, %q", tc.fn, layer, pkg, tc.layer, tc.pkg)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, wl := range spec.Workloads {
		if _, ok := simWorkloads[wl.Name]; !ok && wl.Name != "policy-verify" {
			t.Errorf("workload %s is not implemented", wl.Name)
		}
	}
}

// TestResultLine runs the command end to end on a short budget and
// checks the last line of its output.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "stateful-bulk", "--seed", "7", "--seconds", "0.1", "--trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*minEpisodes+1 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if m := res.Metrics["nic.conntrack_evicted"]; m.Value == 0 {
		t.Errorf("nic.conntrack_evicted = %v on stateful-bulk", m.Value)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
