package link

import (
	"testing"

	"barbican/internal/packet"
	"barbican/internal/sim"
)

// BenchmarkSwitchForward drives one learned unicast frame per iteration
// through the full switched path: station link, switch ingress, the
// store-and-forward latency event, egress, and the outbound link. The
// frame is reused, so every allocation here would be the forwarding
// path's own; it must stay at 0 allocs/op.
func BenchmarkSwitchForward(b *testing.B) {
	k := sim.NewKernel()
	sw := NewSwitch(k, SwitchConfig{})
	p1 := sw.NewPort()
	p2 := sw.NewPort()
	delivered := 0
	p1.Attach(func(*packet.Frame) {})
	p2.Attach(func(*packet.Frame) { delivered++ })

	// Teach the switch both MACs so the timed loop is pure unicast.
	p1.Send(frame(2, 1, 18))
	p2.Send(frame(1, 2, 18))
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	f := frame(2, 1, 18)
	delivered = 0
	warm := sw.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1.Send(f)
		for k.Step() {
		}
	}
	b.StopTimer()
	st := sw.Stats()
	if delivered != b.N || st.Forwarded-warm.Forwarded != uint64(b.N) || st.Flooded != warm.Flooded {
		b.Fatalf("delivered %d of %d frames (stats %+v, warm-up %+v); want all unicast", delivered, b.N, st, warm)
	}
}
