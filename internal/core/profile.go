package core

import (
	"os"
	"path/filepath"

	"barbican/internal/obs"
	"barbican/internal/obs/profile"
)

// Profiling bundles one run's attached profilers: a cost-domain
// CardProfiler per testbed NIC (exact per-packet attribution) and one
// wall-domain KernelProfiler sampling the event loop.
type Profiling struct {
	Cards  []*profile.CardProfiler // testbed host order: client, target, attacker, policy-server
	Kernel *profile.KernelProfiler
}

// AttachProfiler creates both profiler domains and threads them
// through the testbed: every host's NIC gets a cost profiler and the
// kernel gets the step sampler. Returns the bundle for export.
func (tb *Testbed) AttachProfiler(opt profile.Options) *Profiling {
	p := &Profiling{Kernel: profile.NewKernelProfiler(opt.KernelSampleEvery)}
	names := []string{"client", "target", "attacker", "policy-server"}
	for i, h := range tb.hosts() {
		cp := profile.NewCardProfiler(names[i], "", 0)
		h.NIC().SetProfiler(cp)
		p.Cards = append(p.Cards, cp)
	}
	tb.Kernel.SetStepProfiler(p.Kernel)
	return p
}

// CostData merges every card's attributed samples into one
// cost-domain profile, in host order. The result is exact and
// deterministic: identical scenarios produce identical profiles.
func (p *Profiling) CostData() *profile.Data {
	d := profile.NewData(profile.CostSampleTypes, "cost")
	d.Comments = append(d.Comments, "cost-domain card profile: exact per-packet attribution in virtual cost units")
	for _, cp := range p.Cards {
		cp.AppendCostSamples(d)
	}
	return d
}

// KernelData exports the wall-domain kernel profile. Event counts are
// deterministic; wall-nanosecond values are measured on the host.
func (p *Profiling) KernelData() *profile.Data { return p.Kernel.Data() }

// writeProfile writes the run's profiles to dir as
// <base>.cost.{pprof,folded} and <base>.kernel.{pprof,folded} —
// gzipped pprof profile.proto plus folded stacks for
// flamegraph.pl/speedscope. Returns the written paths; no-op when the
// run was not profiled.
func (in *Instrumentation) writeProfile(dir, base string) ([]string, error) {
	if in.Profiling == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base = obs.SanitizeName(base)
	var paths []string
	for _, out := range []struct {
		domain string
		data   *profile.Data
	}{
		{"cost", in.Profiling.CostData()},
		{"kernel", in.Profiling.KernelData()},
	} {
		pprofPath := filepath.Join(dir, base+"."+out.domain+".pprof")
		if err := out.data.WritePprofFile(pprofPath); err != nil {
			return nil, err
		}
		foldedPath := filepath.Join(dir, base+"."+out.domain+".folded")
		if err := out.data.WriteFoldedFile(foldedPath); err != nil {
			return nil, err
		}
		paths = append(paths, pprofPath, foldedPath)
	}
	return paths, nil
}
