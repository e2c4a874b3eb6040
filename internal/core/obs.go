package core

import (
	"time"

	"barbican/internal/nic"
	"barbican/internal/obs"
	"barbican/internal/obs/tracing"
	"barbican/internal/stack"
	"barbican/internal/trace"
)

// Instrumentation bundles one observed run's metrics registry, flight
// recorder, and the optional tracer, profilers and wire capture (see
// Observe). RunBandwidth finishes it when the measurement window
// closes; export it with WriteArtifacts.
type Instrumentation struct {
	Registry *obs.Registry
	Recorder *obs.Recorder
	// Tracer is non-nil when the run was traced.
	Tracer *tracing.Tracer
	// Profiling is non-nil when the run was profiled.
	Profiling *Profiling
	// Capture is non-nil when the client's wire was captured.
	Capture *trace.Capture

	// target is the system-under-test card, the authoritative source
	// of the per-reason drop totals embedded in trace exports.
	target *nic.NIC
}

// finish takes a final sample at the current virtual time and stops the
// recorder.
func (in *Instrumentation) finish() {
	in.Recorder.Sample()
	in.Recorder.Stop()
}

// WriteArtifacts writes the run's artifacts as <base>.* files, each
// kind under its own directory and skipped when that directory is
// empty: telemetry (.prom, .csv, .json, .snapshot.prom) under
// metricsDir, packet traces (.trace.json, .trace.txt) under traceDir and
// profiles (.cost and .kernel, each .pprof and .folded) under
// profileDir. Traces and profiles are written only for runs that
// recorded them. Returns the written paths.
func (in *Instrumentation) WriteArtifacts(metricsDir, traceDir, profileDir, base string) ([]string, error) {
	var paths []string
	for _, w := range []struct {
		dir   string
		write func(dir, base string) ([]string, error)
	}{
		{metricsDir, in.writeMetrics},
		{traceDir, in.writeTrace},
		{profileDir, in.writeProfile},
	} {
		if w.dir == "" {
			continue
		}
		written, err := w.write(w.dir, base)
		if err != nil {
			return paths, err
		}
		paths = append(paths, written...)
	}
	return paths, nil
}

func (in *Instrumentation) writeMetrics(dir, base string) ([]string, error) {
	return obs.WriteRunArtifacts(dir, base, in.Registry, in.Recorder)
}

// instrument attaches a registry and a started flight recorder to the
// testbed: kernel, switch, and every host's stack and card publish
// their counters. sampleEvery <= 0 uses obs.DefaultSampleEvery.
func instrument(tb *Testbed, sampleEvery time.Duration) *Instrumentation {
	reg := obs.NewRegistry()
	obs.PublishKernel(reg, tb.Kernel)
	tb.Switch.PublishMetrics(reg)
	for _, hn := range []struct {
		h    *stack.Host
		name string
	}{
		{tb.Client, "client"},
		{tb.Target, "target"},
		{tb.Attacker, "attacker"},
		{tb.PolicyServer, "policy-server"},
	} {
		label := obs.L("host", hn.name)
		hn.h.PublishMetrics(reg, label)
		hn.h.NIC().PublishMetrics(reg, label)
		hn.h.NIC().Endpoint().PublishMetrics(reg, label)
		if rs := hn.h.NIC().RuleSet(); rs != nil {
			rs.PublishRuleMetrics(reg, label)
		} else if hf := hn.h.Firewall(); hf != nil && hf.RuleSet() != nil {
			hf.RuleSet().PublishRuleMetrics(reg, label)
		}
	}
	rec := obs.NewRecorder(tb.Kernel, reg, sampleEvery)
	rec.Start()
	return &Instrumentation{Registry: reg, Recorder: rec, target: tb.Target.NIC()}
}
