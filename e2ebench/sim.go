package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"barbican/internal/core"
	"barbican/internal/fw"
	"barbican/internal/measure"
	"barbican/internal/obs"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// simWorkload is one testbed configuration: a device and rule set on
// the target, a closed-loop TCP iperf from the client and, floodDelay
// after it starts, an open-loop flood from the attacker.
type simWorkload struct {
	device core.Device
	rules  func() (*fw.RuleSet, error)
	flood  measure.FloodConfig
	// echo opens the stateful echo service the flood aims at.
	echo bool
	// warm is the simulated time from iperf start to the timed window.
	warm time.Duration
	// window is the timed simulated span (the iperf drain adds 50 ms).
	window time.Duration
	// expect checks an episode's outputs beyond equality with the
	// reference, returning the problems found.
	expect func(*simEpisode) []string
}

// floodDelay lets TCP connect and open its window before the flood
// starts, so every seed reaches the same steady state: the connection
// is up, then the flood collapses it or shares the card with it.
const floodDelay = 200 * time.Millisecond

const (
	iperfPort = measure.DefaultIperfPort
	echoPort  = core.StatefloodEchoPort
)

var simWorkloads = map[string]simWorkload{
	// EFW, 64-deep linear rule set with allow-all at depth 64, 8 kpps
	// of minimum-size UDP: the paper's Fig 3(b) DoS region.
	"efw-flood": {
		device: core.DeviceEFW,
		rules:  func() (*fw.RuleSet, error) { return core.StandardRuleSet(64, true) },
		flood:  measure.FloodConfig{Kind: measure.FloodUDP, RatePPS: 8000, DstPort: core.FloodPort},
		warm:   1200 * time.Millisecond,
		window: 8 * time.Second,
		// TCP collapses under the flood.
		expect: func(ep *simEpisode) []string {
			if ep.iperfMbps >= 1 {
				return []string{fmt.Sprintf("goodput %.2f Mbps, want about 0 (DoS region)", ep.iperfMbps)}
			}
			return nil
		},
	},
	// Stateful card under bulk TCP and a 3 kpps SYN flood from 256
	// spoofed sources that keeps its 1,024-entry table full.
	"stateful-bulk": {
		device: core.DeviceStateful,
		rules:  statefulBulkRules,
		flood: measure.FloodConfig{
			Kind: measure.FloodTCPSYN, RatePPS: 3000, DstPort: echoPort,
			SpoofSources: spoofSources(256),
		},
		echo:   true,
		warm:   700 * time.Millisecond,
		window: 3 * time.Second,
		// Bulk TCP near wire rate beside a full, evicting state table.
		expect: func(ep *simEpisode) []string {
			var bad []string
			if ep.iperfMbps < 80 {
				bad = append(bad, fmt.Sprintf("goodput %.2f Mbps, want about 93", ep.iperfMbps))
			}
			if !ep.ctFull || ep.ctCreated == 0 || ep.ctEvicted == 0 {
				bad = append(bad, fmt.Sprintf("conntrack full=%v created=%d evicted=%d, want a full, evicting table",
					ep.ctFull, ep.ctCreated, ep.ctEvicted))
			}
			return bad
		},
	},
}

// statefulBulkRules is 63 non-matching rules, then new connections to
// the iperf and echo ports, then established and related traffic.
func statefulBulkRules() (*fw.RuleSet, error) {
	rules := make([]fw.Rule, 0, 66)
	for i := 1; i < 64; i++ {
		rules = append(rules, fw.NonMatchingRule(i))
	}
	for _, p := range []uint16{iperfPort, echoPort} {
		rules = append(rules, fw.Rule{
			Name:      fmt.Sprintf("allow-new-%d", p),
			Action:    fw.Allow,
			Direction: fw.In,
			Proto:     packet.ProtoTCP,
			DstPorts:  fw.Port(p),
			States:    fw.MaskOf(fw.StateNew),
		})
	}
	rules = append(rules, fw.Rule{
		Name:      "allow-established",
		Action:    fw.Allow,
		Direction: fw.Both,
		States:    fw.MaskOf(fw.StateEstablished, fw.StateRelated),
	})
	return fw.NewRuleSet(fw.Deny, rules...)
}

// spoofSources returns n distinct addresses of the benchmarking range
// 198.18.0.0/15.
func spoofSources(n int) []packet.IP {
	ips := make([]packet.IP, n)
	for i := range ips {
		ips[i] = packet.IP{198, 18, byte(i / 254), byte(1 + i%254)}
	}
	return ips
}

// simEpisode is one testbed built, warmed up and run through the timed
// window.
type simEpisode struct {
	setup            span
	testbed, install time.Duration
	// window and sim are the timed window's host and simulated lengths.
	window span
	sim    time.Duration
	// frames is target-card RxFrames + TxRequests in the window.
	frames           uint64
	mallocs, bytes   uint64
	events           uint64
	gcCycles         uint32
	gcCPU            float64
	flowHits, flowLk uint64
	ctCreated        uint64
	ctEvicted        uint64
	// ctFull reports a full state table at the window's start (true
	// on a card without one).
	ctFull        bool
	overloadDrops uint64
	iperfMbps     float64
	out           outputs
	// heapLive is the mean live heap over the untraced window's
	// samples, with the testbed in it; the caller subtracts the live
	// heap once the testbed is released. heapPause is the samples' cost.
	heapLive, heapSamples uint64
	heapPause             span
	// refSec is a reference second, timed after the episode.
	refSec time.Duration
	// tr is the window's tracer; nil when untraced.
	tr *layerTracer
}

// gcCPUMetric is the runtime's estimate of cumulative GC CPU time.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func gcCPU() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// traceMode selects what an episode records in its window.
type traceMode int

const (
	// untraced windows give the end-to-end metrics and sample the
	// live heap.
	untraced traceMode = iota
	// timed windows time every handler call by layer.
	timed
	// allocs windows count allocations of one handler call in
	// allocSampleEvery by layer.
	allocs
)

// run builds the workload's testbed for seed and runs one episode.
func (w simWorkload) run(seed int64, mode traceMode) (*simEpisode, error) {
	ep := &simEpisode{}
	t0 := now()
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: w.device, Seed: seed})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rs, err := w.rules()
	if err != nil {
		return nil, err
	}
	tb.InstallPolicy(tb.Target, rs)
	t2 := time.Now()
	ep.testbed, ep.install = t1.Sub(t0.wall), t2.Sub(t1)
	if w.echo {
		if _, err := tb.Target.ListenTCP(echoPort, func(c *stack.Conn) {
			c.OnData = func(b []byte) { _ = c.Write(append([]byte(nil), b...)) }
		}); err != nil {
			return nil, err
		}
	}
	flood := measure.NewFlooder(tb.Attacker, tb.Target.IP(), w.flood)
	tb.Kernel.After(floodDelay, flood.Start)

	card := tb.Target.NIC()
	// iperf publishes its byte counter here so the window's own
	// goodput can be read.
	iperfMetrics := obs.NewRegistry()
	var (
		ms                    runtime.MemStats
		begin                 stamp
		simBegin              time.Duration
		st0                   = card.Stats()
		ct0                   = card.ConntrackStats()
		fc0                   = card.FlowCacheStats()
		exec0, gcCPU0, numGC0 = uint64(0), 0.0, uint32(0)
		mallocs0, bytes0      uint64
		iperf0                float64
	)
	ep.ctFull = true
	tb.Kernel.At(w.warm, func() {
		st0, ct0, fc0 = card.Stats(), card.ConntrackStats(), card.FlowCacheStats()
		iperf0 = iperfBytes(iperfMetrics)
		if ct := card.Conntrack(); ct != nil {
			ep.ctFull = ct.Len() == ct.Cap()
		}
		exec0, simBegin = tb.Kernel.Executed(), tb.Kernel.Now()
		gcCPU0 = gcCPU()
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0, numGC0 = ms.Mallocs, ms.TotalAlloc, ms.NumGC
		switch mode {
		case untraced:
			sampleHeap(tb.Kernel, w.window, ep)
		case timed:
			ep.tr = newLayerTracer(tb.Kernel, 0)
			ep.tr.start()
		case allocs:
			ep.tr = newLayerTracer(tb.Kernel, allocSampleEvery)
			ep.tr.start()
		}
		begin = now()
		ep.setup = t0.to(begin)
	})
	res, err := measure.RunTCPIperf(tb.Kernel, tb.Client, tb.Target, measure.IperfConfig{
		Duration: w.warm + w.window,
		Port:     iperfPort,
		Metrics:  iperfMetrics,
	})
	end := now()
	tb.Kernel.SetAfterStep(nil)
	if ep.tr != nil {
		ep.tr.stop()
	}
	if err != nil {
		return nil, err
	}
	if begin.wall.IsZero() {
		return nil, fmt.Errorf("timed window never opened")
	}
	runtime.ReadMemStats(&ms)
	ep.window = begin.to(end)
	ep.window.wall -= ep.heapPause.wall
	ep.window.cpu -= ep.heapPause.cpu
	ep.sim = tb.Kernel.Now() - simBegin
	ep.mallocs, ep.bytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	ep.gcCycles = ms.NumGC - numGC0
	ep.gcCPU = gcCPU() - gcCPU0
	ep.events = tb.Kernel.Executed() - exec0

	st, ct, fc := card.Stats(), card.ConntrackStats(), card.FlowCacheStats()
	ep.frames = st.RxFrames + st.TxRequests - st0.RxFrames - st0.TxRequests
	ep.flowHits, ep.flowLk = fc.Hits-fc0.Hits, fc.Hits+fc.Misses-fc0.Hits-fc0.Misses
	ep.ctCreated, ep.ctEvicted = ct.Created-ct0.Created, ct.Evicted-ct0.Evicted
	ep.overloadDrops = st.RxOverloadDrops + st.TxOverloadDrops - st0.RxOverloadDrops - st0.TxOverloadDrops
	ep.iperfMbps = (float64(res.BytesReceived) - iperf0) * 8 / ep.sim.Seconds() / 1e6

	ep.out = outputs{
		"iperf_bytes":     res.BytesReceived,
		"flood_sent":      flood.Sent(),
		"kernel_executed": tb.Kernel.Executed(),
	}
	addCounters(ep.out, "nic.", st)
	addCounters(ep.out, "conntrack.", ct)

	if ep.heapSamples > 0 {
		ep.heapLive /= ep.heapSamples
	}
	runtime.KeepAlive(tb)
	return ep, nil
}

// iperfBytes reads the payload bytes iperf has received so far.
func iperfBytes(r *obs.Registry) float64 {
	for _, s := range r.Gather() {
		if s.Name == "iperf_rx_bytes_total" {
			return s.Value
		}
	}
	return 0
}

// heapSamples is how many times an untraced window measures its live
// heap. The heap at one instant depends on what the queues happen to
// hold, so the metric is the mean over evenly spaced instants.
const heapSamples = 8

// sampleHeap measures the live heap at heapSamples evenly spaced
// instants of the window that starts now, from the kernel's after-step
// hook so that no event is added. The time the forced collections take
// is recorded in ep.heapPause, for the caller to take out of the
// window.
func sampleHeap(k *sim.Kernel, window time.Duration, ep *simEpisode) {
	step := window / heapSamples
	next := k.Now() + step/2
	k.SetAfterStep(func(k *sim.Kernel) {
		if k.Now() < next || ep.heapSamples == heapSamples {
			return
		}
		next += step
		s := now()
		ep.heapLive += liveHeap()
		ep.heapSamples++
		d := s.to(now())
		ep.heapPause.wall += d.wall
		ep.heapPause.cpu += d.cpu
	})
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// addCounters copies every unsigned-integer field of a stats struct
// into out under prefix+field name.
func addCounters(out outputs, prefix string, stats any) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanUint() {
			out[prefix+v.Type().Field(i).Name] = f.Uint()
		}
	}
}
