package core

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"barbican/internal/obs/tracing"
)

// floodScenario is a short Fig 3a-style collapse point: ADF at full
// depth under an allowed flood hot enough to saturate the card.
func floodScenario() Scenario {
	return Scenario{
		Device:       DeviceADF,
		Depth:        64,
		FloodRatePPS: 12_500,
		FloodAllowed: true,
		Duration:     500 * time.Millisecond,
	}
}

// TestTracedFloodDropCountersSumToTotalDrops is the PR's acceptance
// check: a traced flood run exports Perfetto trace_event JSON whose
// embedded drop-reason counters sum exactly to the target card's
// total dropped packets.
func TestTracedFloodDropCountersSumToTotalDrops(t *testing.T) {
	_, inst, err := RunBandwidth(floodScenario(), &Observe{Trace: &tracing.Options{SampleEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Tracer == nil {
		t.Fatal("tracer not attached")
	}
	if inst.Tracer.Sampled() == 0 {
		t.Fatal("no packets sampled")
	}

	var buf bytes.Buffer
	opt := tracing.ExportOptions{Drops: dropCounters(inst), Counters: dropCounterTracks(inst)}
	if err := inst.Tracer.WritePerfetto(&buf, opt); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var sum uint64
	for k, v := range doc.OtherData {
		if !strings.HasPrefix(k, "drop_") {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("counter %s=%q not a number", k, v)
		}
		sum += n
	}
	total, err := strconv.ParseUint(doc.OtherData["drops_total"], 10, 64)
	if err != nil {
		t.Fatalf("drops_total %q not a number", doc.OtherData["drops_total"])
	}
	if sum != total {
		t.Fatalf("per-reason counters sum to %d, drops_total says %d", sum, total)
	}
	if nicTotal := inst.target.TotalDrops(); total != nicTotal {
		t.Fatalf("exported drops_total %d != target NIC total drops %d", total, nicTotal)
	}
	if total == 0 {
		t.Fatal("flood run recorded zero drops; scenario not saturating")
	}
	// A 12.5 kpps flood against a 64-rule ADF is the paper's
	// CPU-exhaustion regime: that reason must dominate.
	drops := dropCounters(inst)
	if drops["cpu-exhausted"] == 0 {
		t.Fatalf("expected cpu-exhausted drops in collapse regime, got %v", drops)
	}
}

// TestTracingDoesNotPerturbSimulation: attaching the tracer must not
// change any simulated outcome — same bandwidth, same NIC counters.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	s := floodScenario()
	plain, _, err := RunBandwidth(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := RunBandwidth(s, &Observe{Trace: &tracing.Options{SampleEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Mbps() != traced.Mbps() {
		t.Fatalf("tracing changed bandwidth: %v vs %v Mbps", plain.Mbps(), traced.Mbps())
	}
	if plain.TargetNIC != traced.TargetNIC {
		t.Fatalf("tracing changed NIC stats:\nplain:  %+v\ntraced: %+v", plain.TargetNIC, traced.TargetNIC)
	}
}

// TestRuleAttributionPopulated: every filtered run ships its own
// per-rule breakdown with hits on the action rule and monotonically
// increasing predicted walk latency.
func TestRuleAttributionPopulated(t *testing.T) {
	p, _, err := RunBandwidth(Scenario{
		Device:   DeviceEFW,
		Depth:    64,
		Duration: 300 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Attribution
	if a == nil {
		t.Fatal("no attribution on a filtered run")
	}
	if len(a.Rules) != 64 {
		t.Fatalf("attribution has %d rules, want 64", len(a.Rules))
	}
	if a.Evals == 0 {
		t.Fatal("no evaluations recorded")
	}
	var hits uint64
	for i, r := range a.Rules {
		hits += r.Hits
		if r.Index != i+1 {
			t.Fatalf("rule %d has index %d", i, r.Index)
		}
		if i > 0 && r.Latency <= a.Rules[i-1].Latency {
			t.Fatalf("predicted latency not increasing at rule %d", r.Index)
		}
	}
	if hits+a.DefaultHits != a.Evals {
		t.Fatalf("hits %d + default %d != evals %d", hits, a.DefaultHits, a.Evals)
	}
	if hits == 0 {
		t.Fatal("no rule hits recorded for iperf traffic")
	}
}
