package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// endToEnd lists the untraced run's metrics, in print order, with
// their units. An op is one target-card frame (RxFrames + TxRequests)
// on the simulation workloads and one rule set verified, diffed and
// linted on policy-verify.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_ref_s", "1/s"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's metrics, in print order, with their
// units. Every workload reports all of them; a layer the workload does
// not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.events_per_frame", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.outside_handlers_s", "s"},
	{"sim.queue_peak_len", "count"},
	{"link.events", "count"},
	{"link.wall_s", "s"},
	{"link.allocs_per_event", "count"},
	{"nic.events", "count"},
	{"nic.wall_s", "s"},
	{"nic.allocs_per_event", "count"},
	{"nic.flowcache_hit_ratio", "ratio"},
	{"nic.conntrack_created", "count"},
	{"nic.conntrack_evicted", "count"},
	{"nic.overload_drops", "count"},
	{"stack.events", "count"},
	{"stack.wall_s", "s"},
	{"stack.allocs_per_event", "count"},
	{"measure.events", "count"},
	{"measure.wall_s", "s"},
	{"other.events", "count"},
	{"other.wall_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"core.testbed_s", "s"},
	{"fw.install_s", "s"},
	{"sem.verify_s", "s"},
	{"sem.diff_s", "s"},
	{"sem.lint_s", "s"},
	{"sem.regions", "count"},
	{"sem.allocs_per_region", "count"},
	{"trace.window_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// emit adds every metric of list to r, taking values from vals (0 when
// absent), and fails on a value that list does not name.
func emit(r *report, list []struct{ name, unit string }, vals map[string]float64) error {
	known := make(map[string]bool, len(list))
	for _, m := range list {
		known[m.name] = true
		r.add(m.name, vals[m.name], m.unit)
	}
	for name := range vals {
		if !known[name] {
			return fmt.Errorf("metric %q is not in the benchmark's metric list", name)
		}
	}
	return nil
}

// pair returns an episode function that runs a, then b.
func pair(a, b func() error) func() error {
	return func() error {
		if err := a(); err != nil {
			return err
		}
		return b()
	}
}

// reconcile checks that a traced window's layer rows and outside time
// add up to its wall time.
func reconcile(tr *layerTracer) []string {
	if sum := tr.handlerWall() + tr.Outside; sum != tr.Total {
		return []string{fmt.Sprintf("layer rows sum to %v, traced window is %v", sum, tr.Total)}
	}
	return nil
}

// runSim measures a simulation workload. Without layers, every episode
// counts toward the end-to-end metrics. With layers, untraced and timed
// episodes alternate, so both see the same host conditions, then one
// episode samples allocations per layer; the layer table is the median
// timed episode's.
func runSim(name string, w simWorkload, seed int64, budget time.Duration, layers bool, c *check, r *report) error {
	episode := func(mode traceMode) (*simEpisode, error) {
		runtime.GC()
		ep, err := w.run(seed, mode)
		if err != nil {
			return nil, err
		}
		problems := append(c.diff(ep.out, ""), w.expect(ep)...)
		if ep.frames == 0 {
			problems = append(problems, "no frames in the timed window")
		}
		if mode == timed {
			problems = append(problems, reconcile(ep.tr)...)
		}
		c.op(problems...)
		ep.out = nil
		ep.heapLive -= min(ep.heapLive, liveHeap())
		ep.refSec = refSecond()
		return ep, nil
	}
	collect := func(into *[]*simEpisode, mode traceMode) func() error {
		return func() error {
			ep, err := episode(mode)
			if err == nil {
				*into = append(*into, ep)
			}
			return err
		}
	}
	var plain, traced []*simEpisode
	if !layers {
		if err := repeat(budget, collect(&plain, untraced)); err != nil {
			return err
		}
		return simEndToEnd(r, name, seed, w, plain)
	}
	if err := repeat(budget, pair(collect(&plain, untraced), collect(&traced, timed))); err != nil {
		return err
	}
	alloc, err := episode(allocs)
	if err != nil {
		return err
	}
	return simLayers(r, name, seed, plain, traced, alloc)
}

func simEndToEnd(r *report, name string, seed int64, w simWorkload, eps []*simEpisode) error {
	allocsPerFrame := medianOf(eps, func(ep *simEpisode) float64 { return ratio(float64(ep.mallocs), float64(ep.frames)) })
	bytesPerFrame := medianOf(eps, func(ep *simEpisode) float64 { return ratio(float64(ep.bytes), float64(ep.frames)) })
	simPer := func(clock func(*simEpisode) float64) float64 {
		return medianOf(eps, func(ep *simEpisode) float64 { return ep.sim.Seconds() / clock(ep) })
	}
	r.note("%s seed %d: %d episodes of %v simulated", name, seed, len(eps), w.window)
	r.note("  %-28s %14.6g %s", "sim_s_per_wall_s", simPer(func(ep *simEpisode) float64 { return ep.window.wall.Seconds() }), "s/s")
	r.note("  %-28s %14.6g %s", "sim_s_per_cpu_s", simPer(func(ep *simEpisode) float64 { return ep.window.cpu.Seconds() }), "s/s")
	r.note("  %-28s %14.6g %s", "sim_s_per_ref_s", simPer(func(ep *simEpisode) float64 { return inRef(ep.window.cpu, ep.refSec) }), "s/s")
	r.note("  %-28s %14.6g %s", "ref_second_cpu_s", medianOf(eps, func(ep *simEpisode) float64 { return ep.refSec.Seconds() }), "s")
	r.note("  %-28s %14.6g %s", "allocs_per_frame", allocsPerFrame, "count")
	r.note("  %-28s %14.6g %s", "bytes_per_frame", bytesPerFrame, "B")
	r.note("  %-28s %14.6g %s", "setup_wall_s", medianOf(eps, func(ep *simEpisode) float64 { return ep.setup.wall.Seconds() }), "s")
	r.note("  %-28s %14.6g %s", "iperf_goodput", medianOf(eps, func(ep *simEpisode) float64 { return ep.iperfMbps }), "Mbps")
	return emit(r, endToEnd, map[string]float64{
		"ops_per_ref_s": medianOf(eps, func(ep *simEpisode) float64 { return float64(ep.frames) / inRef(ep.window.cpu, ep.refSec) }),
		"allocs_per_op": allocsPerFrame,
		"bytes_per_op":  bytesPerFrame,
		"heap_live_mb":  medianOf(eps, func(ep *simEpisode) float64 { return float64(ep.heapLive) / mib }),
		"setup_s":       medianOf(eps, func(ep *simEpisode) float64 { return inRef(ep.setup.cpu, ep.refSec) }),
	})
}

func simLayers(r *report, name string, seed int64, plain, traced []*simEpisode, alloc *simEpisode) error {
	wall := func(ep *simEpisode) float64 { return ep.window.wall.Seconds() }
	walls := make([]float64, len(traced))
	for i, ep := range traced {
		walls[i] = wall(ep)
	}
	all := append(append([]*simEpisode(nil), plain...), traced...)
	ep := traced[medianIndex(walls)]
	tr := ep.tr
	vals := map[string]float64{
		"sim.events":              float64(ep.events),
		"sim.events_per_frame":    ratio(float64(ep.events), float64(ep.frames)),
		"sim.ns_per_event":        ratio(float64(tr.Outside.Nanoseconds()), float64(ep.events)),
		"sim.outside_handlers_s":  tr.Outside.Seconds(),
		"sim.queue_peak_len":      float64(tr.peak),
		"nic.flowcache_hit_ratio": ratio(float64(ep.flowHits), float64(ep.flowLk)),
		"nic.conntrack_created":   float64(ep.ctCreated),
		"nic.conntrack_evicted":   float64(ep.ctEvicted),
		"nic.overload_drops":      float64(ep.overloadDrops),
		"runtime.gc_cycles":       float64(ep.gcCycles),
		"runtime.gc_cpu_s":        ep.gcCPU,
		"core.testbed_s":          medianOf(all, func(ep *simEpisode) float64 { return ep.testbed.Seconds() }),
		"fw.install_s":            medianOf(all, func(ep *simEpisode) float64 { return ep.install.Seconds() }),
		"trace.window_s":          tr.Total.Seconds(),
		"trace.overhead_frac":     median(walls)/medianOf(plain, wall) - 1,
	}
	r.note("%s seed %d: traced window of %v simulated, median of %d traced episodes (%d untraced)",
		name, seed, ep.sim, len(traced), len(plain))
	r.note("  %-10s %10s %12s %8s %14s  %s", "layer", "events", "wall_s", "share", "allocs/event", "packages")
	for _, row := range tr.rows {
		a := alloc.tr.row(row.Name)
		perEvent := ratio(float64(a.Allocs), float64(a.AllocEvents))
		vals[row.Name+".events"] = float64(row.Events)
		vals[row.Name+".wall_s"] = row.Wall.Seconds()
		if row.Name != otherLayer && row.Name != "measure" {
			vals[row.Name+".allocs_per_event"] = perEvent
		}
		r.note("  %-10s %10d %12.6f %7.1f%% %14.3f  %s", row.Name, row.Events, row.Wall.Seconds(),
			100*row.Wall.Seconds()/tr.Total.Seconds(), perEvent, strings.Join(row.Pkgs, ","))
	}
	r.note("  %-10s %10s %12.6f %7.1f%%", "outside", "", tr.Outside.Seconds(), 100*tr.Outside.Seconds()/tr.Total.Seconds())
	r.note("  %-10s %10d %12.6f  (rows + outside = %.6f s; gc cpu %.6f s is beside this sum)",
		"total", ep.events, tr.Total.Seconds(), (tr.handlerWall() + tr.Outside).Seconds(), ep.gcCPU)
	return emit(r, perLayer, vals)
}

// checkPass records each set of a policy-verify pass as one operation:
// its outputs must match the expectation and its proof must hold.
func (c *check) checkPass(ep *verifyEpisode) {
	for i := 0; i < int(ep.sets); i++ {
		k := fmt.Sprintf("set%03d.", i)
		problems := c.diff(ep.out, k)
		if ep.out[k+"proof_ok"] != 1 {
			problems = append(problems, k+"proof failed")
		}
		c.op(problems...)
	}
}

// Clocks for passTime: wall, CPU and reference seconds.
func wallOf(_ *verifyEpisode, s span) float64 { return s.wall.Seconds() }
func cpuOf(_ *verifyEpisode, s span) float64  { return s.cpu.Seconds() }
func refOf(ep *verifyEpisode, s span) float64 { return inRef(s.cpu, ep.refSec) }

// passTime is a robust pass time for a run: the sum over the corpus of
// each set's median time across passes, on the given clock.
func passTime(eps []*verifyEpisode, clock func(*verifyEpisode, span) float64) float64 {
	var sum float64
	for i := range eps[0].perSet {
		xs := make([]float64, len(eps))
		for p, ep := range eps {
			xs[p] = clock(ep, ep.perSet[i])
		}
		sum += median(xs)
	}
	return sum
}

// runVerifyWorkload measures policy-verify. Each operation is one rule
// set. With layers, untraced passes, the overhead baseline, alternate
// with passes that time each call into fw/sem.
func runVerifyWorkload(seed int64, budget time.Duration, layers bool, c *check, r *report) error {
	var plain, traced []*verifyEpisode
	collect := func(into *[]*verifyEpisode, spans bool) func() error {
		return func() error {
			// A pass takes seconds, so the reference second is the mean
			// of one timed just before it and one just after.
			before := refSecond()
			runtime.GC()
			ep, err := runVerify(seed, spans)
			if err != nil {
				return err
			}
			ep.heapLive -= min(ep.heapLive, liveHeap())
			ep.refSec = (before + refSecond()) / 2
			c.checkPass(ep)
			ep.out = nil
			*into = append(*into, ep)
			return nil
		}
	}
	if !layers {
		if err := repeat(budget, collect(&plain, false)); err != nil {
			return err
		}
		setsPerS := float64(corpusSets) / passTime(plain, refOf)
		allocsPerSet := medianOf(plain, func(ep *verifyEpisode) float64 { return float64(ep.mallocs) / float64(ep.sets) })
		r.note("policy-verify seed %d: %d passes over %d sets of %d rules", seed, len(plain), corpusSets, corpusRules)
		r.note("  %-28s %14.6g %s", "rulesets_per_wall_s", float64(corpusSets)/passTime(plain, wallOf), "1/s")
		r.note("  %-28s %14.6g %s", "rulesets_per_cpu_s", float64(corpusSets)/passTime(plain, cpuOf), "1/s")
		r.note("  %-28s %14.6g %s", "rulesets_per_ref_s", setsPerS, "1/s")
		r.note("  %-28s %14.6g %s", "ref_second_cpu_s", medianOf(plain, func(ep *verifyEpisode) float64 { return ep.refSec.Seconds() }), "s")
		r.note("  %-28s %14.6g %s", "allocs_per_ruleset", allocsPerSet, "count")
		r.note("  %-28s %14.6g %s", "setup_wall_s", medianOf(plain, func(ep *verifyEpisode) float64 { return ep.setup.wall.Seconds() }), "s")
		return emit(r, endToEnd, map[string]float64{
			"ops_per_ref_s": setsPerS,
			"allocs_per_op": allocsPerSet,
			"bytes_per_op":  medianOf(plain, func(ep *verifyEpisode) float64 { return float64(ep.bytes) / float64(ep.sets) }),
			"heap_live_mb":  medianOf(plain, func(ep *verifyEpisode) float64 { return float64(ep.heapLive) / mib }),
			"setup_s":       medianOf(plain, func(ep *verifyEpisode) float64 { return inRef(ep.setup.cpu, ep.refSec) }),
		})
	}
	if err := repeat(budget, pair(collect(&plain, false), collect(&traced, true))); err != nil {
		return err
	}
	xs := make([]float64, len(traced))
	for i, ep := range traced {
		xs[i] = ep.window.wall.Seconds()
	}
	ep := traced[medianIndex(xs)]
	r.note("policy-verify seed %d: median of %d traced passes (%d untraced)", seed, len(traced), len(plain))
	r.note("  verify %.6f s + diff %.6f s + lint %.6f s of %.6f s; %d regions",
		ep.verify.Seconds(), ep.diff.Seconds(), ep.lint.Seconds(), ep.window.wall.Seconds(), ep.regions)
	return emit(r, perLayer, map[string]float64{
		"runtime.gc_cycles":     float64(ep.gcCycles),
		"runtime.gc_cpu_s":      ep.gcCPU,
		"sem.verify_s":          ep.verify.Seconds(),
		"sem.diff_s":            ep.diff.Seconds(),
		"sem.lint_s":            ep.lint.Seconds(),
		"sem.regions":           float64(ep.regions),
		"sem.allocs_per_region": ratio(float64(ep.semMallocs), float64(ep.regions)),
		"trace.window_s":        ep.window.wall.Seconds(),
		"trace.overhead_frac":   passTime(traced, wallOf)/passTime(plain, wallOf) - 1,
	})
}
