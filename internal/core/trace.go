package core

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"barbican/internal/fw"
	"barbican/internal/obs"
	"barbican/internal/obs/tracing"
	"barbican/internal/stack"
)

// AttachTracer creates a packet-lifecycle tracer on the testbed's
// kernel and threads it through every pipeline component: each host's
// NIC (which samples egress traffic) and stack, each access link's
// station-side direction, and the switch (which covers the
// switch-side directions). Returns the tracer for export.
func (tb *Testbed) AttachTracer(opt tracing.Options) *tracing.Tracer {
	tr := tracing.New(tb.Kernel, opt)
	for _, h := range tb.hosts() {
		h.SetTracer(tr)
		h.NIC().SetTracer(tr)
		h.NIC().Endpoint().SetTracer(tr)
	}
	tb.Switch.SetTracer(tr)
	return tr
}

// hosts lists the standard testbed hosts in a fixed order.
func (tb *Testbed) hosts() []*stack.Host {
	return []*stack.Host{tb.Client, tb.Target, tb.Attacker, tb.PolicyServer}
}

// RuleHit is one rule's slice of a run's firewall work: how often it
// matched and the predicted per-packet cost/latency of a packet that
// walks to (and matches at) its position.
type RuleHit struct {
	Index     int           `json:"index"`
	Text      string        `json:"rule"`
	Hits      uint64        `json:"hits"`
	CostUnits float64       `json:"cost_units"`
	Latency   time.Duration `json:"latency_ns"`
}

// RuleAttribution is the per-rule breakdown of the target's policy
// enforcement over one run: hit counts from the live rule-set plus
// the profile's predicted walk cost at each rule position. Default*
// describe packets that walked the full depth without matching.
type RuleAttribution struct {
	Device         string        `json:"device"`
	Evals          uint64        `json:"evals"`
	DefaultHits    uint64        `json:"default_hits"`
	DefaultCost    float64       `json:"default_cost_units"`
	DefaultLatency time.Duration `json:"default_latency_ns"`
	Rules          []RuleHit     `json:"rules"`
}

// ruleAttribution snapshots the target's enforcement-point counters.
// Returns nil when the target enforces no policy.
func ruleAttribution(tb *Testbed) *RuleAttribution {
	rs := tb.Target.NIC().RuleSet()
	if rs == nil && tb.Target.Firewall() != nil {
		rs = tb.Target.Firewall().RuleSet()
	}
	if rs == nil {
		return nil
	}
	profile := tb.Target.NIC().Profile()
	a := &RuleAttribution{
		Device:      profile.Name,
		Evals:       rs.EvalCount(),
		DefaultHits: rs.DefaultHits(),
		DefaultCost: profile.Cost(rs.Len(), 0),
	}
	a.DefaultLatency = profile.ServiceTime(a.DefaultCost)
	rs.Each(func(i int, r *fw.Rule) bool {
		cost := profile.Cost(i, 0)
		a.Rules = append(a.Rules, RuleHit{
			Index:     i,
			Text:      r.String(),
			Hits:      rs.MatchCount(i),
			CostUnits: cost,
			Latency:   profile.ServiceTime(cost),
		})
		return true
	})
	return a
}

// dropCounters flattens the target NIC's per-reason drop arrays into
// a name → count map (nonzero reasons only, rx and tx merged), the
// authoritative totals embedded in trace exports.
func dropCounters(in *Instrumentation) map[string]uint64 {
	if in == nil || in.target == nil {
		return nil
	}
	rx, tx := in.target.DropCounts()
	out := make(map[string]uint64)
	for _, r := range tracing.DropReasons() {
		if n := rx[r] + tx[r]; n > 0 {
			out[r.String()] = n
		}
	}
	return out
}

// dropCounterTracks converts the flight recorder's per-reason target
// drop series into Perfetto counter tracks (nonzero series only).
func dropCounterTracks(in *Instrumentation) []tracing.CounterTrack {
	if in == nil || in.Recorder == nil {
		return nil
	}
	var tracks []tracing.CounterTrack
	for _, r := range tracing.DropReasons() {
		id := fmt.Sprintf(`nic_drops_total{dir="rx",host="target",reason=%q}`, r.String())
		series, ok := in.Recorder.Series(id)
		if !ok {
			continue
		}
		var points []tracing.CounterPoint
		nonzero := false
		for _, pt := range series.Points {
			if pt.V != 0 {
				nonzero = true
			}
			points = append(points, tracing.CounterPoint{At: pt.T, Value: pt.V})
		}
		if !nonzero {
			continue
		}
		tracks = append(tracks, tracing.CounterTrack{Name: "target drops " + r.String(), Points: points})
	}
	return tracks
}

// writeTrace writes the run's packet traces to dir as
// <base>.trace.json (Perfetto trace_event format, embedding the
// authoritative per-reason drop totals and recorder drop tracks) and
// <base>.trace.txt (tcpdump-style annotated log). Returns the written
// paths; no-op when the run was not traced.
func (in *Instrumentation) writeTrace(dir, base string) ([]string, error) {
	if in.Tracer == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opt := tracing.ExportOptions{
		Drops:    dropCounters(in),
		Counters: dropCounterTracks(in),
	}
	jsonPath := filepath.Join(dir, obs.SanitizeName(base)+".trace.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		return nil, err
	}
	if err := in.Tracer.WritePerfetto(jf, opt); err != nil {
		jf.Close()
		return nil, err
	}
	if err := jf.Close(); err != nil {
		return nil, err
	}
	textPath := filepath.Join(dir, obs.SanitizeName(base)+".trace.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		return nil, err
	}
	if err := in.Tracer.WriteText(tf); err != nil {
		tf.Close()
		return nil, err
	}
	if err := tf.Close(); err != nil {
		return nil, err
	}
	return []string{jsonPath, textPath}, nil
}
